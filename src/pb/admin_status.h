// Admin-plane snapshot collection for a running replica.
//
// net::AdminServer is deliberately protocol-blind: it speaks HTTP and asks a
// Collector for data. This module is the other half — it knows the ZabNode,
// the session layer, and the storage backend, and renders the endpoint
// bodies ON the node's event loop (histograms, readiness, and the trace
// ring are loop-owned). Wiring:
//
//   AdminServer admin(cfg, make_admin_collector(env, node, &tree, storage));
//
// Every helper here must run on the node's loop thread; only
// make_admin_collector (which posts) and the /tracez reader are thread-safe.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "net/admin_server.h"
#include "net/runtime_env.h"
#include "storage/zab_storage.h"
#include "zab/zab_node.h"

namespace zab::pb {

class ReplicatedTree;

/// /status body: role, epoch, zxid watermarks, peers, sessions, storage.
/// `tree` may be null (no client layer above the node).
[[nodiscard]] std::string admin_status_json(ZabNode& node,
                                            ReplicatedTree* tree,
                                            storage::ZabStorage& storage);

/// The active replicated cluster config as a JSON object (version,
/// config_zxid, voters, observers, addrs). Embedded in /status as
/// "ensemble", served whole at /config, and returned by kConfig.
[[nodiscard]] std::string cluster_config_json(const ClusterConfig& c);

/// Trace ring as JSONL, one event per line, oldest first. Each line carries
/// the packed zxid as `"packed":N,` and the recorder's epoch as `"epoch":E,`.
/// A `query` of zxid=N or epoch=E renders only that packed zxid's or that
/// epoch's events (zxid wins; a value that is not a number matches none).
[[nodiscard]] std::string admin_trace_jsonl(ZabNode& node,
                                            const std::string& query = {});

/// Reader of admin_trace_jsonl()'s format (a /tracez body), for merging
/// several nodes' rings. Corruption on any line it cannot read whole: a
/// truncated line, a missing field, an unknown stage name. Thread-safe.
[[nodiscard]] Result<std::vector<trace::Event>> parse_admin_trace_jsonl(
    std::string_view jsonl);

/// What the admin server needs to answer a GET of `target`: readiness, and
/// the body of `target` alone (none for a path it does not route), /tracez
/// filtered by `query`. Also refreshes zab.server.uptime_s so scrapes see a
/// live value.
[[nodiscard]] net::AdminSnapshot collect_admin_snapshot(
    ZabNode& node, ReplicatedTree* tree, storage::ZabStorage& storage,
    const std::string& target, const std::string& query = {});

/// AdminServer::Collector bound to a RuntimeEnv-driven replica: posts the
/// collection onto the node's loop. The referenced objects must outlive the
/// AdminServer (stop the server first on teardown). If the loop has stopped,
/// the posted task is dropped and the server serves its stale cache — which
/// is exactly the degraded behavior /readyz reports.
[[nodiscard]] net::AdminServer::Collector make_admin_collector(
    net::RuntimeEnv& env, ZabNode& node, ReplicatedTree* tree,
    storage::ZabStorage& storage);

}  // namespace zab::pb
