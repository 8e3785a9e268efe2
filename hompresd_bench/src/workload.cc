#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "base/rng.h"
#include "server/json.h"

namespace hompresd_bench {

namespace {

using hompres::Rng;

// Per-connection request rates the stream lengths allow for: twice the
// highest rates measured on a 4-core x86 host (hom_miss ~700,
// query_reuse ~30k, view_stream ~1k req/s per connection). A faster
// daemon that runs a stream dry ends the window early; throughput stays
// per second.
constexpr double kHomMissRate = 3000;
constexpr double kQueryReuseRate = 60000;
constexpr double kViewStreamRate = 3000;

// Warm-up requests per connection, and requests the traced replay runs
// after replaying the warm-up. The warm-ups of hom_miss and view_stream
// are long enough (~0.4 s) that set-up time averages over the
// heavy-tailed request costs instead of following a few of them.
constexpr size_t kHomMissWarmup = 300;
constexpr size_t kHomMissReplay = 1500;
constexpr size_t kQueryReuseWarmup = 2048;  // pool sweep (1536) + draws
constexpr size_t kQueryReuseReplay = 60000;
constexpr size_t kViewStreamWarmup = 400;
constexpr size_t kViewStreamReplay = 3000;

// Seed of the fixture structures (targets, view base, toggle edges).
constexpr uint64_t kFixtureSeed = 20040614;

// hom_miss / query_reuse targets: ~256 elements each.
constexpr int kGridSide = 16;
constexpr int kTargetSize = 256;
constexpr int kDigraphOutDegree = 3;
// hom_count answers are capped here, so a source with millions of
// homomorphisms into the 2-tree still costs milliseconds.
constexpr int kCountLimit = 1000;
// Largest cq_evaluate query (variables).
constexpr int kCqElements = 4;

// query_reuse pools.
constexpr int kHomPool = 2048;
constexpr int kUcqPool = 512;
constexpr int kContainedPool = 512;
constexpr double kZipfExponent = 1.0;
// The query_reuse union target.
constexpr int kSmallTargetSize = 24;
constexpr int kSmallOutDegree = 2;

// view_stream base: kComponents components of kComponentSize elements
// with kComponentEdges random edges each, so the transitive closure
// holds at most kComponents * kComponentSize^2 tuples.
constexpr int kComponents = 24;
constexpr int kComponentSize = 10;
constexpr int kComponentEdges = 15;
constexpr int kTogglesPerComponent = 4;
constexpr int kViewSourcePool = 128;
constexpr int kViewTuplesMax = 64;

std::string Quote(const std::string& s) {
  return hompres::JsonValue::String(s).Serialize();
}

std::string StructureText(int n, const std::vector<Edge>& edges) {
  std::string text = "|A|=" + std::to_string(n) + "; E={";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) text += ",";
    text += "(" + std::to_string(edges[i].first) + " " +
            std::to_string(edges[i].second) + ")";
  }
  return text + "}";
}

// `m` distinct loop-free edges over n elements, sorted.
std::vector<Edge> RandomEdges(Rng& rng, int n, int m) {
  std::set<Edge> edges;
  while (static_cast<int>(edges.size()) < m) {
    const int u = rng.UniformInt(0, n - 1);
    const int v = rng.UniformInt(0, n - 1);
    if (u != v) edges.insert({u, v});
  }
  return {edges.begin(), edges.end()};
}

void AddUndirected(std::set<Edge>* edges, int u, int v) {
  edges->insert({u, v});
  edges->insert({v, u});
}

std::string GridText() {
  std::set<Edge> edges;
  for (int r = 0; r < kGridSide; ++r) {
    for (int c = 0; c < kGridSide; ++c) {
      const int v = r * kGridSide + c;
      if (c + 1 < kGridSide) AddUndirected(&edges, v, v + 1);
      if (r + 1 < kGridSide) AddUndirected(&edges, v, v + kGridSide);
    }
  }
  return StructureText(kGridSide * kGridSide, {edges.begin(), edges.end()});
}

// A random digraph in which every element has `out_degree` successors.
std::string RegularDigraphText(Rng& rng, int n, int out_degree) {
  std::set<Edge> edges;
  for (int u = 0; u < n; ++u) {
    std::set<int> heads;
    while (static_cast<int>(heads.size()) < out_degree) {
      const int v = rng.UniformInt(0, n - 1);
      if (v != u) heads.insert(v);
    }
    for (int v : heads) edges.insert({u, v});
  }
  return StructureText(n, {edges.begin(), edges.end()});
}

std::string DigraphText(Rng& rng) {
  return RegularDigraphText(rng, kTargetSize, kDigraphOutDegree);
}

std::string SmallDigraphText(Rng& rng) {
  return RegularDigraphText(rng, kSmallTargetSize, kSmallOutDegree);
}

// A random 2-tree: each new element joins both ends of a random
// existing edge.
std::string TwoTreeText(Rng& rng) {
  std::set<Edge> edges;
  std::vector<Edge> undirected = {{0, 1}};
  AddUndirected(&edges, 0, 1);
  for (int v = 2; v < kTargetSize; ++v) {
    const Edge e = undirected[rng.Uniform(undirected.size())];
    AddUndirected(&edges, v, e.first);
    AddUndirected(&edges, v, e.second);
    undirected.push_back({v, e.first});
    undirected.push_back({v, e.second});
  }
  return StructureText(kTargetSize, {edges.begin(), edges.end()});
}

const std::vector<std::string> kTargetNames = {"grid", "digraph", "twotree"};

void DefineTargets(Rng& rng, WorkloadSpec* spec) {
  spec->named["grid"] = GridText();
  spec->named["digraph"] = DigraphText(rng);
  spec->named["twotree"] = TwoTreeText(rng);
  for (const std::string& name : kTargetNames) {
    spec->setup.push_back("\"op\":\"define\",\"name\":" + Quote(name) +
                          ",\"structure\":" + Quote(spec->named[name]));
  }
}

// A small random digraph of 3 to `max_elements` elements, n-1 to 2n
// edges.
std::string RandomSource(Rng& rng, int max_elements) {
  const int n = rng.UniformInt(3, max_elements);
  const int m = rng.UniformInt(n - 1, 2 * n);
  return StructureText(n, RandomEdges(rng, n, m));
}

// A random 3-6 element source whose text was never produced before by
// this generator (so its HomCache entries are new).
std::string FreshSource(Rng& rng, std::unordered_set<std::string>* seen) {
  for (;;) {
    std::string text = RandomSource(rng, 6);
    if (seen->insert(text).second) return text;
  }
}

// A conjunctive query: canonical structure on `vars` elements, atoms
// E(u,v), free variable 0.
struct Cq {
  int vars = 0;
  std::vector<Edge> atoms;
};

std::string CqJson(const Cq& q, int free_var = 0) {
  std::vector<Edge> atoms = q.atoms;
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  return "{\"structure\":" + Quote(StructureText(q.vars, atoms)) +
         ",\"free\":[" + std::to_string(free_var) + "]}";
}

// A connected random CQ: every variable hangs off an earlier one, plus
// up to `extra` more atoms.
Cq RandomCq(Rng& rng, int vars, int extra) {
  Cq q;
  q.vars = vars;
  for (int v = 1; v < vars; ++v) {
    const int u = rng.UniformInt(0, v - 1);
    q.atoms.push_back(rng.Bernoulli(0.5) ? Edge{u, v} : Edge{v, u});
  }
  for (int i = rng.UniformInt(0, extra); i > 0; --i) {
    const int u = rng.UniformInt(0, vars - 1);
    const int v = rng.UniformInt(0, vars - 1);
    if (u != v) q.atoms.push_back({u, v});
  }
  return q;
}

// `q` under a random variable renaming; *free_var receives the image
// of variable 0.
Cq Renamed(Rng& rng, const Cq& q, int* free_var) {
  std::vector<int> perm(static_cast<size_t>(q.vars));
  for (int i = 0; i < q.vars; ++i) perm[static_cast<size_t>(i)] = i;
  for (int i = q.vars - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  Cq out;
  out.vars = q.vars;
  for (const Edge& e : q.atoms) {
    out.atoms.push_back({perm[static_cast<size_t>(e.first)],
                         perm[static_cast<size_t>(e.second)]});
  }
  *free_var = perm[0];
  return out;
}

// A redundant union of 2-3 base disjuncts, each joined by a renamed
// duplicate and/or a strictly more constrained extension (contained in
// it), shuffled. The optimizer removes the duplicates and extensions.
std::string RedundantUnionJson(Rng& rng) {
  std::vector<std::string> disjuncts;
  for (int b = rng.UniformInt(2, 3); b > 0; --b) {
    const Cq base = RandomCq(rng, rng.UniformInt(2, 4), 1);
    disjuncts.push_back(CqJson(base));
    if (rng.Bernoulli(0.5)) {
      int free_var = 0;
      const Cq renamed = Renamed(rng, base, &free_var);
      disjuncts.push_back(CqJson(renamed, free_var));
    }
    if (rng.Bernoulli(0.8)) {
      Cq extended = base;
      const int fresh = extended.vars++;
      const int anchor = rng.UniformInt(0, base.vars - 1);
      extended.atoms.push_back(rng.Bernoulli(0.5) ? Edge{anchor, fresh}
                                                  : Edge{fresh, anchor});
      disjuncts.push_back(CqJson(extended));
    }
  }
  for (size_t i = disjuncts.size() - 1; i > 0; --i) {
    std::swap(disjuncts[i], disjuncts[rng.Uniform(i + 1)]);
  }
  std::string out = "\"disjuncts\":[";
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (i > 0) out += ",";
    out += disjuncts[i];
  }
  return out + "],\"arity\":1";
}

// A containment pair: half the time q2 keeps a subset of q1's atoms
// (renamed), so q1 is contained in q2; otherwise q2 is unrelated.
std::string ContainedPairJson(Rng& rng) {
  const Cq q1 = RandomCq(rng, rng.UniformInt(3, 5), 2);
  Cq q2;
  if (rng.Bernoulli(0.5)) {
    Cq kept;
    kept.vars = q1.vars;
    for (const Edge& e : q1.atoms) {
      if (rng.Bernoulli(0.7)) kept.atoms.push_back(e);
    }
    int free_var = 0;
    q2 = Renamed(rng, kept, &free_var);
    return "\"q1\":" + CqJson(q1) + ",\"q2\":" + CqJson(q2, free_var);
  }
  q2 = RandomCq(rng, rng.UniformInt(2, 4), 1);
  return "\"q1\":" + CqJson(q1) + ",\"q2\":" + CqJson(q2);
}

// Zipf(kZipfExponent) over [0, n) by inverse-CDF lookup.
class Zipf {
 public:
  explicit Zipf(int n) : cdf_(static_cast<size_t>(n)) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(i + 1.0, kZipfExponent);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(Rng& rng) const {
    const double u =
        static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

std::shared_ptr<const std::string> Body(const char* op,
                                        const std::string& rest) {
  return std::make_shared<const std::string>(std::string("\"op\":\"") + op +
                                             "\"," + rest);
}

// The draw stream of connection `c`, forked from the shared generator
// so each connection's prefix is independent of the others' lengths.
Rng ConnectionRng(const Rng& shared, int c) {
  Rng fork = shared;
  return Rng(fork.Next() ^
             (0xD1B54A32D192ED03ULL * static_cast<uint64_t>(c + 1)));
}

std::string TargetField(const std::string& name) {
  return "\"target\":\"@" + name + "\"";
}

void GenerateHomMiss(Rng& fixture, Rng& rng, size_t length,
                     WorkloadSpec* spec) {
  DefineTargets(fixture, spec);
  std::unordered_set<std::string> seen;
  for (auto& stream : spec->streams) {
    stream.reserve(length);
  }
  // Round-robin over the connections so the dedup set sees one global
  // order.
  for (size_t i = 0; i < length; ++i) {
    for (auto& stream : spec->streams) {
      const std::string target =
          TargetField(kTargetNames[rng.Uniform(kTargetNames.size())]);
      const int mix = rng.UniformInt(0, 99);
      GenRequest request;
      if (mix < 90) {
        const std::string source =
            "\"source\":" + Quote(FreshSource(rng, &seen));
        if (mix < 55) {
          request.op = "hom_has";
          request.body = Body(request.op, target + "," + source);
        } else if (mix < 80) {
          request.op = "hom_count";
          request.body =
              Body(request.op, target + "," + source + ",\"limit\":" +
                                   std::to_string(kCountLimit));
        } else {
          request.op = "hom_find";
          request.body = Body(request.op, target + "," + source);
        }
      } else {
        // Evaluation enumerates every homomorphism, so it runs against
        // the bounded-degree digraph with at most kCqElements variables:
        // on the grid and the 2-tree one query can have 10^8 of them.
        // Evaluation is never cached, so queries may repeat.
        request.op = "cq_evaluate";
        request.body = Body(
            request.op, TargetField("digraph") + ",\"query\":{\"structure\":" +
                            Quote(RandomSource(rng, kCqElements)) +
                            ",\"free\":[0]}");
      }
      stream.push_back(std::move(request));
    }
  }
  spec->warmup = kHomMissWarmup;
  spec->replay = kHomMissReplay;
}

void GenerateQueryReuse(Rng& fixture, Rng& rng, size_t length,
                        WorkloadSpec* spec) {
  // The pools are fixtures too; the seed draws the request sequence.
  DefineTargets(fixture, spec);
  std::unordered_set<std::string> seen;
  std::vector<std::shared_ptr<const std::string>> hom_pool;
  for (int i = 0; i < kHomPool; ++i) {
    const std::string target =
        TargetField(kTargetNames[fixture.Uniform(kTargetNames.size())]);
    hom_pool.push_back(Body("hom_has", target + ",\"source\":" +
                                           Quote(FreshSource(fixture, &seen))));
  }
  // Unions run against a small digraph: ucq_evaluate enumerates every
  // homomorphism of every kept disjunct on each request (nothing caches
  // it), which on the 256-element targets would make the engine, not
  // the memo and transport, dominate this workload.
  spec->named["small"] = SmallDigraphText(fixture);
  spec->setup.push_back("\"op\":\"define\",\"name\":\"small\",\"structure\":" +
                        Quote(spec->named["small"]));
  std::vector<std::shared_ptr<const std::string>> satisfied_pool, eval_pool,
      contained_pool;
  for (int i = 0; i < kUcqPool; ++i) {
    const std::string rest =
        TargetField("small") + "," + RedundantUnionJson(fixture);
    satisfied_pool.push_back(Body("ucq_satisfied", rest));
    eval_pool.push_back(Body("ucq_evaluate", rest));
  }
  for (int i = 0; i < kContainedPool; ++i) {
    contained_pool.push_back(
        Body("cq_contained", ContainedPairJson(fixture)));
  }
  const Zipf hom_zipf(kHomPool), ucq_zipf(kUcqPool),
      contained_zipf(kContainedPool);
  for (int c = 0; c < kConnections; ++c) {
    auto& stream = spec->streams[static_cast<size_t>(c)];
    stream.reserve(length);
    Rng draws = ConnectionRng(rng, c);
    // The stream opens with a sweep over this connection's share of the
    // pools, so the warm-up leaves every hom_has item cached and the
    // containment verdicts warm: the window then measures steady-state
    // reuse rather than how many cold pool items a seed happens to hit.
    // Pool items are numbered per op family so consistency checks
    // never mix answers of different ops.
    auto sweep = [&](const char* op, int pool, int first_item,
                     const auto& bodies) {
      for (int k = c; k < pool && stream.size() < length;
           k += kConnections) {
        GenRequest request;
        request.op = op;
        request.item = first_item + k;
        request.body = bodies[static_cast<size_t>(k)];
        stream.push_back(std::move(request));
      }
    };
    sweep("hom_has", kHomPool, 0, hom_pool);
    sweep("ucq_satisfied", kUcqPool, kHomPool, satisfied_pool);
    sweep("cq_contained", kContainedPool, kHomPool + 2 * kUcqPool,
          contained_pool);
    while (stream.size() < length) {
      GenRequest request;
      const int mix = draws.UniformInt(0, 99);
      if (mix < 50) {
        request.op = "hom_has";
        request.item = hom_zipf.Draw(draws);
        request.body = hom_pool[static_cast<size_t>(request.item)];
      } else if (mix < 65) {
        request.op = "ucq_satisfied";
        const int k = ucq_zipf.Draw(draws);
        request.item = kHomPool + k;
        request.body = satisfied_pool[static_cast<size_t>(k)];
      } else if (mix < 75) {
        request.op = "ucq_evaluate";
        const int k = ucq_zipf.Draw(draws);
        request.item = kHomPool + kUcqPool + k;
        request.body = eval_pool[static_cast<size_t>(k)];
      } else {
        request.op = "cq_contained";
        const int k = contained_zipf.Draw(draws);
        request.item = kHomPool + 2 * kUcqPool + k;
        request.body = contained_pool[static_cast<size_t>(k)];
      }
      stream.push_back(std::move(request));
    }
  }
  spec->warmup = kQueryReuseWarmup;
  spec->replay = kQueryReuseReplay;
}

void GenerateViewStream(Rng& fixture, Rng& rng, size_t length,
                        WorkloadSpec* spec) {
  // Base: disjoint random components; toggle edges (half present, half
  // absent at start) are owned by one connection each, by component
  // parity, so every mutate is effective whatever the interleaving.
  std::set<Edge> base;
  std::vector<std::vector<Edge>> toggles(kConnections);
  std::vector<std::set<Edge>> present(kConnections);
  for (int c = 0; c < kComponents; ++c) {
    const int offset = c * kComponentSize;
    const std::vector<Edge> local =
        RandomEdges(fixture, kComponentSize, kComponentEdges);
    for (const Edge& e : local) {
      base.insert({offset + e.first, offset + e.second});
    }
    const int owner = c % kConnections;
    for (int t = 0; t < kTogglesPerComponent / 2; ++t) {
      const Edge e = local[fixture.Uniform(local.size())];
      const Edge global{offset + e.first, offset + e.second};
      if (present[static_cast<size_t>(owner)].insert(global).second) {
        toggles[static_cast<size_t>(owner)].push_back(global);
      }
    }
    for (int t = 0; t < kTogglesPerComponent / 2; ++t) {
      for (;;) {
        const int u = fixture.UniformInt(0, kComponentSize - 1);
        const int v = fixture.UniformInt(0, kComponentSize - 1);
        const Edge global{offset + u, offset + v};
        if (u == v || base.count(global) > 0) continue;
        auto& owned = toggles[static_cast<size_t>(owner)];
        if (std::find(owned.begin(), owned.end(), global) != owned.end()) {
          continue;
        }
        owned.push_back(global);
        break;
      }
    }
  }
  const int n = kComponents * kComponentSize;
  spec->view_base = "base";
  spec->named["base"] = StructureText(n, {base.begin(), base.end()});
  spec->views["tc"] = "T(x,y) <- E(x,y). T(x,z) <- T(x,y), E(y,z).";
  spec->views["hop2"] = "H(x,z) <- E(x,y), E(y,z).";
  spec->setup.push_back("\"op\":\"define\",\"name\":\"base\",\"structure\":" +
                        Quote(spec->named["base"]));
  for (const auto& [name, program] : spec->views) {
    spec->setup.push_back("\"op\":\"view_define\",\"name\":" + Quote(name) +
                          ",\"on\":\"base\",\"program\":" + Quote(program));
  }

  std::unordered_set<std::string> seen;
  std::vector<std::shared_ptr<const std::string>> sources;
  for (int i = 0; i < kViewSourcePool; ++i) {
    sources.push_back(Body("hom_has", TargetField("base") + ",\"source\":" +
                                          Quote(FreshSource(rng, &seen))));
  }
  const std::vector<std::string> view_names = {"tc", "hop2"};
  for (int c = 0; c < kConnections; ++c) {
    auto& stream = spec->streams[static_cast<size_t>(c)];
    stream.reserve(length);
    const auto& owned = toggles[static_cast<size_t>(c)];
    auto& on = present[static_cast<size_t>(c)];
    Rng draws = ConnectionRng(rng, c);
    int mutates = 0;
    for (size_t i = 0; i < length; ++i) {
      GenRequest request;
      request.own_mutates_before = mutates;
      const int mix = draws.UniformInt(0, 99);
      if (mix < 50) {
        // Alternate removes and inserts, so the edge count stays put.
        request.op = "mutate";
        request.insert = mutates % 2 == 1;
        std::vector<Edge> candidates;
        for (const Edge& e : owned) {
          if ((on.count(e) > 0) != request.insert) candidates.push_back(e);
        }
        request.edge = candidates[draws.Uniform(candidates.size())];
        if (request.insert) {
          on.insert(request.edge);
        } else {
          on.erase(request.edge);
        }
        const std::string tuple = "{\"relation\":\"E\",\"tuple\":[" +
                                  std::to_string(request.edge.first) + "," +
                                  std::to_string(request.edge.second) + "]}";
        request.body =
            Body(request.op, std::string("\"name\":\"base\",") +
                                 (request.insert ? "\"add_tuple\":"
                                                 : "\"remove_tuple\":") +
                                 tuple);
        ++mutates;
      } else if (mix < 80) {
        request.op = "view_tuples";
        request.body =
            Body(request.op, "\"name\":" +
                                 Quote(view_names[draws.Uniform(2)]) +
                                 ",\"max_results\":" +
                                 std::to_string(kViewTuplesMax));
      } else {
        request.op = "hom_has";
        request.body = sources[draws.Uniform(sources.size())];
      }
      stream.push_back(std::move(request));
    }
  }
  spec->warmup = kViewStreamWarmup;
  spec->replay = kViewStreamReplay;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHomMiss:
      return "hom_miss";
    case Workload::kQueryReuse:
      return "query_reuse";
    case Workload::kViewStream:
      return "view_stream";
  }
  return "unknown";
}

std::optional<Workload> WorkloadFromName(const std::string& name) {
  for (Workload w :
       {Workload::kHomMiss, Workload::kQueryReuse, Workload::kViewStream}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

WorkloadSpec GenerateWorkload(Workload workload, uint64_t seed,
                              size_t length) {
  WorkloadSpec spec;
  spec.workload = workload;
  spec.seed = seed;
  spec.streams.resize(kConnections);
  // The named structures are fixtures, the same for every seed: the
  // seed draws the requests (and query_reuse's pools), so runs on
  // different seeds measure the same targets. Distinct workloads draw
  // requests from distinct streams even at one seed.
  Rng fixture(kFixtureSeed);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(workload) + 1);
  switch (workload) {
    case Workload::kHomMiss:
      GenerateHomMiss(fixture, rng, length, &spec);
      break;
    case Workload::kQueryReuse:
      GenerateQueryReuse(fixture, rng, length, &spec);
      break;
    case Workload::kViewStream:
      GenerateViewStream(fixture, rng, length, &spec);
      break;
  }
  return spec;
}

size_t StreamLength(Workload workload, double seconds) {
  switch (workload) {
    case Workload::kHomMiss:
      return kHomMissWarmup + static_cast<size_t>(kHomMissRate * seconds);
    case Workload::kQueryReuse:
      return kQueryReuseWarmup +
             static_cast<size_t>(kQueryReuseRate * seconds);
    case Workload::kViewStream:
      return kViewStreamWarmup +
             static_cast<size_t>(kViewStreamRate * seconds);
  }
  return 0;
}

size_t ReplayStreamLength(Workload workload) {
  switch (workload) {
    case Workload::kHomMiss:
      return kHomMissWarmup + kHomMissReplay / kConnections + 1;
    case Workload::kQueryReuse:
      return kQueryReuseWarmup + kQueryReuseReplay / kConnections + 1;
    case Workload::kViewStream:
      return kViewStreamWarmup + kViewStreamReplay / kConnections + 1;
  }
  return 0;
}

std::string Payload(const GenRequest& request, int64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + *request.body + "}";
}

int64_t RequestId(int connection, size_t index) {
  return (static_cast<int64_t>(connection + 1) << 32) |
         static_cast<int64_t>(index);
}

std::vector<std::pair<int, size_t>> InterleavedOrder(const WorkloadSpec& spec,
                                                     size_t begin,
                                                     size_t count) {
  std::vector<std::pair<int, size_t>> order;
  order.reserve(count);
  for (size_t i = begin; order.size() < count; ++i) {
    bool any = false;
    for (int c = 0; c < kConnections && order.size() < count; ++c) {
      if (i < spec.streams[static_cast<size_t>(c)].size()) {
        order.push_back({c, i});
        any = true;
      }
    }
    if (!any) break;
  }
  return order;
}

}  // namespace hompresd_bench
