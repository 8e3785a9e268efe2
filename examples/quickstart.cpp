// Quickstart: structures, homomorphisms, cores, and conjunctive queries.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "cq/cq.h"
#include "engine/engine.h"
#include "graph/builders.h"
#include "hom/core.h"
#include "structure/gaifman.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

int main() {
  using namespace hompres;

  // 1. Structures: the directed 6-cycle and 3-cycle over vocabulary {E/2}.
  Structure c6 = DirectedCycleStructure(6);
  Structure c3 = DirectedCycleStructure(3);
  std::printf("C6: %s\n", c6.DebugString().c_str());

  // 2. Homomorphisms: C6 -> C3 exists (wind around twice), C3 -> C6 does
  // not (cycle lengths must divide).
  Budget unlimited = Budget::Unlimited();
  std::printf("hom(C6, C3) = %s\n",
              Engine::Has(c6, c3, unlimited).Value() ? "yes" : "no");
  std::printf("hom(C3, C6) = %s\n",
              Engine::Has(c3, c6, unlimited).Value() ? "yes" : "no");

  // 3. Cores: every bipartite graph's core is a single edge (K2).
  Structure grid = UndirectedGraphStructure(GridGraph(3, 4));
  Structure core = ComputeCore(grid);
  std::printf("core of the 3x4 grid has %d elements (K2 expected)\n",
              core.UniverseSize());

  // 4. Conjunctive queries via Chandra-Merlin: phi_A is satisfied by B
  // exactly when hom(A, B) exists.
  ConjunctiveQuery path3 =
      ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(4));
  std::printf("phi = %s\n", path3.ToString().c_str());
  std::printf("C3 |= phi (a cycle contains arbitrarily long paths): %s\n",
              path3.SatisfiedBy(c3) ? "yes" : "no");

  // 5. Non-Boolean queries: q(x) = "x has an out-edge".
  Structure edge(GraphVocabulary(), 2);
  edge.AddTuple(0, {0, 1});
  ConjunctiveQuery q(edge, {0});
  const auto answers = q.Evaluate(DirectedPathStructure(4));
  std::printf("elements of P4 with an out-edge:");
  for (const Tuple& t : answers) std::printf(" %d", t[0]);
  std::printf("\n");

  // 6. Gaifman graphs tie structures back to graph theory.
  std::printf("Gaifman degree of the grid structure: %d\n",
              StructureDegree(grid));
  return 0;
}
