// Quickstart: stand up a FaaSTCC cluster, register functions, run a
// composition (DAG) as one causally consistent transaction.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart
#include <cstdio>

#include "harness/cluster.h"

using namespace faastcc;
using harness::Cluster;
using harness::ClusterParams;
using harness::SystemKind;

namespace {

faas::FunctionSpec make_fn(std::string name,
                           std::vector<uint32_t> children = {}) {
  faas::FunctionSpec f;
  f.name = std::move(name);
  f.children = std::move(children);
  return f;
}

}  // namespace

int main() {
  // 1. Describe the cluster: a TCC storage layer (4 partitions), compute
  //    nodes with promise-aware caches, a scheduler.  Everything runs on a
  //    deterministic simulated network.
  ClusterParams params;
  params.system = SystemKind::kFaasTcc;
  params.partitions = 4;
  params.compute_nodes = 3;
  params.clients = 0;  // we drive DAGs by hand below
  params.workload.num_keys = 100;
  Cluster cluster(params);

  // 2. Register the functions that make up the application.  A function
  //    reads and writes through its transaction handle; the platform
  //    passes its result (and the DAG context) to its children.
  cluster.registry().register_function(
      "greet", [](faas::ExecEnv& env) -> sim::Task<Buffer> {
        env.txn.write(1, "hello");
        std::printf("  [greet]  wrote key 1 (buffered, not yet visible)\n");
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "amplify", [](faas::ExecEnv& env) -> sim::Task<Buffer> {
        // Reads its upstream's write from the DAG context — read-your-writes
        // across workers — plus a key from storage, from one snapshot.
        std::vector<Key> keys{1, 2};
        auto values = co_await env.txn.read(std::move(keys));
        if (!values.has_value()) {
          env.abort_requested = true;
          co_return Buffer{};
        }
        std::printf("  [amplify] read key 1 = \"%s\", key 2 = \"%s\"\n",
                    std::string((*values)[0].view()).c_str(),
                    std::string((*values)[1].view()).c_str());
        env.txn.write(3, std::string((*values)[0].view()) + ", world");
        co_return Buffer{};
      });

  // 3. Start the cluster (pre-loads the dataset, runs the stabilization
  //    warm-up) and submit the composition.  The whole DAG commits
  //    atomically at its sink.
  cluster.start();

  net::RpcNode client(cluster.network(), 900);
  bool finished = false;
  bool committed = false;
  client.handle_oneway(faas::kDagDone, [&](Buffer b, net::Address) {
    auto done = decode_message<faas::DagDoneMsg>(b);
    std::printf("DAG %s\n", done.committed ? "committed" : "aborted");
    finished = true;
    committed = done.committed;
  });

  faas::StartDagMsg start;
  start.txn_id = 1;
  start.client = 900;
  start.spec = faas::DagSpec::chain({make_fn("greet"), make_fn("amplify")});
  std::printf("submitting greet -> amplify ...\n");
  client.send(cluster.scheduler_address(), faas::kStartDag, start);

  while (!finished && cluster.loop().now() < seconds(10)) {
    cluster.loop().run_until(cluster.loop().now() + milliseconds(5));
  }

  // 4. The committed writes are now atomically visible in the TCC store.
  cluster.loop().run_until(cluster.loop().now() + milliseconds(50));
  for (Key k : {Key{1}, Key{3}}) {
    const auto& partition = cluster.tcc_partitions()[k % params.partitions];
    const auto r = partition->store().read_at(k, Timestamp::max());
    std::printf("storage key %llu = \"%s\" @ %s\n",
                static_cast<unsigned long long>(k),
                r.version != nullptr
                    ? std::string(r.version->value.view()).c_str()
                    : "(none)",
                r.version != nullptr ? r.version->ts.to_string().c_str() : "-");
  }
  return committed ? 0 : 1;
}
