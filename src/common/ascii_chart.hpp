/**
 * @file
 * Terminal line-chart renderer for the bench harnesses: plots one or
 * more (x, y) series on a character grid with axes and a legend, so
 * the paper's figures can be eyeballed straight from the console.
 */

#ifndef FT_COMMON_ASCII_CHART_HPP
#define FT_COMMON_ASCII_CHART_HPP

#include <ostream>
#include <string>
#include <vector>

namespace fasttrack {

/** A multi-series scatter/line chart rendered with ASCII glyphs. */
class AsciiChart
{
  public:
    /**
     * @param title chart heading.
     * @param width plot area width in characters.
     * @param height plot area height in rows.
     */
    explicit AsciiChart(std::string title, std::uint32_t width = 60,
                        std::uint32_t height = 16);

    /** Add a named series; glyphs are assigned in order. */
    void addSeries(const std::string &name,
                   std::vector<std::pair<double, double>> points);

    /** Use log10 scaling on the x axis (injection-rate sweeps). */
    void setLogX(bool log_x) { logX_ = log_x; }
    /** Use log10 scaling on the y axis. */
    void setLogY(bool log_y) { logY_ = log_y; }
    /** Label the axes. */
    void setAxisLabels(std::string x, std::string y);

    void print(std::ostream &os) const;

  private:
    struct Series
    {
        std::string name;
        char glyph;
        std::vector<std::pair<double, double>> points;
    };

    std::string title_;
    std::uint32_t width_;
    std::uint32_t height_;
    bool logX_ = false;
    bool logY_ = false;
    std::string xLabel_;
    std::string yLabel_;
    std::vector<Series> series_;
};

/**
 * Dense 2D intensity grid rendered with a glyph ramp (one cell per
 * character), with a min/max legend. Used for per-router link
 * utilization heatmaps: cell (x, y) is the torus router at that
 * coordinate, intensity its traversal count.
 */
class AsciiHeatmap
{
  public:
    /** @param width/@p height grid dimensions in cells. */
    AsciiHeatmap(std::string title, std::uint32_t width,
                 std::uint32_t height);

    /** Set cell (@p x, @p y); values outside the grid are ignored. */
    void set(std::uint32_t x, std::uint32_t y, double value);

    void print(std::ostream &os) const;

    double maxValue() const;

  private:
    std::string title_;
    std::uint32_t width_;
    std::uint32_t height_;
    std::vector<double> cells_;
};

} // namespace fasttrack

#endif // FT_COMMON_ASCII_CHART_HPP
