// Umbrella header: the full public API of the updp2p library.
//
//   #include "updp2p.hpp"
//
// Fine-grained includes remain available (and preferable for compile
// times); this header exists for quick starts and scratch programs.
#pragma once

#include "analysis/flooding_model.hpp"      // IWYU pragma: export
#include "analysis/forward_probability.hpp" // IWYU pragma: export
#include "analysis/pull_model.hpp"          // IWYU pragma: export
#include "analysis/push_model.hpp"          // IWYU pragma: export
#include "baselines/anti_entropy.hpp"       // IWYU pragma: export
#include "baselines/presets.hpp"            // IWYU pragma: export
#include "churn/churn_model.hpp"            // IWYU pragma: export
#include "churn/heterogeneous.hpp"          // IWYU pragma: export
#include "churn/trace_io.hpp"               // IWYU pragma: export
#include "common/args.hpp"                  // IWYU pragma: export
#include "common/csv.hpp"                   // IWYU pragma: export
#include "common/rng.hpp"                   // IWYU pragma: export
#include "common/stats.hpp"                 // IWYU pragma: export
#include "common/table.hpp"                 // IWYU pragma: export
#include "common/types.hpp"                 // IWYU pragma: export
#include "gossip/codec.hpp"                 // IWYU pragma: export
#include "gossip/config.hpp"                // IWYU pragma: export
#include "gossip/messages.hpp"              // IWYU pragma: export
#include "gossip/node.hpp"                  // IWYU pragma: export
#include "gossip/query.hpp"                 // IWYU pragma: export
#include "net/frame.hpp"                    // IWYU pragma: export
#include "net/inproc_transport.hpp"         // IWYU pragma: export
#include "net/latency.hpp"                  // IWYU pragma: export
#include "net/message_bus.hpp"              // IWYU pragma: export
#include "net/transport.hpp"                // IWYU pragma: export
#include "net/udp_transport.hpp"            // IWYU pragma: export
#include "pgrid/pgrid.hpp"                  // IWYU pragma: export
#include "pgrid/replicated_index.hpp"       // IWYU pragma: export
#include "runtime/loopback_cluster.hpp"     // IWYU pragma: export
#include "runtime/peer_runtime.hpp"         // IWYU pragma: export
#include "runtime/retry.hpp"                // IWYU pragma: export
#include "runtime/timer_wheel.hpp"          // IWYU pragma: export
#include "sim/round_simulator.hpp"          // IWYU pragma: export
#include "sim/sweep.hpp"                    // IWYU pragma: export
#include "sim/workload.hpp"                 // IWYU pragma: export
