/**
 * @file
 * Umbrella header: pulls in the whole public FastTrack API. Include
 * individual module headers instead when compile time matters.
 */

#ifndef FT_FASTTRACK_HPP
#define FT_FASTTRACK_HPP

// Foundations
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/ascii_chart.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

// FPGA device models
#include "fpga/area_model.hpp"
#include "fpga/device.hpp"
#include "fpga/layout.hpp"
#include "fpga/power_model.hpp"
#include "fpga/reference_data.hpp"
#include "fpga/routability.hpp"
#include "fpga/wire_model.hpp"

// NoC core
#include "noc/analysis.hpp"
#include "noc/config.hpp"
#include "noc/input_queued.hpp"
#include "noc/multichannel.hpp"
#include "noc/network.hpp"
#include "noc/noc_device.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/smart.hpp"
#include "noc/topology.hpp"

// Traffic and workloads
#include "traffic/injector.hpp"
#include "traffic/pattern.hpp"
#include "traffic/segmentation.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_replay.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/graph.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/sparse_matrix.hpp"
#include "workloads/spmv.hpp"

// Simulation drivers
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

#endif // FT_FASTTRACK_HPP
