// Seeded request streams for the hompresd end-to-end benchmark.
//
// A workload is a set of named structures (and views) the daemon is set
// up with, plus one request stream per client connection. Everything is
// a pure function of (workload, seed): the same seed gives a
// byte-identical stream, so the daemon run, the traced in-process
// replay and the answer checker all see the same requests. See
// README.md for why each workload exists and how it was sized.

#ifndef HOMPRESD_BENCH_WORKLOAD_H_
#define HOMPRESD_BENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hompresd_bench {

enum class Workload { kHomMiss, kQueryReuse, kViewStream };

const char* WorkloadName(Workload workload);
std::optional<Workload> WorkloadFromName(const std::string& name);

// Client connections of the closed loop, and requests each keeps in
// flight.
inline constexpr int kConnections = 2;
inline constexpr int kInFlight = 4;

// A directed edge of the view_stream base graph.
using Edge = std::pair<int, int>;

// One generated request. `body` is the JSON object minus its "id"
// member (the id is stamped per send, see Payload).
struct GenRequest {
  const char* op = "";
  std::shared_ptr<const std::string> body;
  // query_reuse: pool item the request was drawn from (answers of one
  // item must agree on every repeat); -1 for fresh requests.
  int item = -1;
  // view_stream: mutates this connection sent before this request, and
  // for a mutate the edge it toggles (insert = true adds it).
  int own_mutates_before = 0;
  Edge edge{-1, -1};
  bool insert = false;
};

struct WorkloadSpec {
  Workload workload = Workload::kHomMiss;
  uint64_t seed = 0;
  // define / view_define request bodies, sent in order during set-up.
  std::vector<std::string> setup;
  // Named structures by name, as structure text (what "@name" resolves
  // to before any mutate).
  std::map<std::string, std::string> named;
  // view_stream: Datalog program text per view name, and the view's
  // base structure name.
  std::map<std::string, std::string> views;
  std::string view_base;
  // Per-connection streams; the first `warmup` requests of each are
  // sent during set-up, the rest in the timed window.
  std::vector<std::vector<GenRequest>> streams;
  size_t warmup = 0;
  // Requests the traced replay executes after replaying the warm-up.
  size_t replay = 0;
};

// Builds the workload with `length` requests per connection. A longer
// stream extends a shorter one: prefixes do not depend on the length.
WorkloadSpec GenerateWorkload(Workload workload, uint64_t seed,
                              size_t length);

// Requests per connection a `seconds`-long window needs (warm-up
// included, with headroom over the highest measured rate).
size_t StreamLength(Workload workload, double seconds);

// Requests per connection the traced replay reads.
size_t ReplayStreamLength(Workload workload);

// The wire payload of `request` sent under `id`.
std::string Payload(const GenRequest& request, int64_t id);

// The id the load generator stamps on request `index` of connection
// `connection` (distinct across connections, set-up and window).
int64_t RequestId(int connection, size_t index);

// The replay order: the connections' streams interleaved round-robin
// from `begin`, as (connection, index) pairs, `count` of them.
std::vector<std::pair<int, size_t>> InterleavedOrder(const WorkloadSpec& spec,
                                                     size_t begin,
                                                     size_t count);

}  // namespace hompresd_bench

#endif  // HOMPRESD_BENCH_WORKLOAD_H_
