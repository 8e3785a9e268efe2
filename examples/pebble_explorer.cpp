// pebble_explorer: Section 7.2's separating example, live. The query
// q(C3, 2) — "the Duplicator wins the existential 2-pebble game against
// the directed triangle" — holds on a finite digraph exactly when it
// contains a directed cycle (Proposition 7.9), so it is not first-order
// definable, and with k = 3 pebbles the game collapses to plain
// homomorphism existence.

#include <cstdio>

#include "engine/engine.h"
#include "pebble/pebble_game.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

int main() {
  using namespace hompres;

  Structure c3 = DirectedCycleStructure(3);
  std::printf("A = directed triangle C3\n\n");
  std::printf("%-28s %10s %10s %10s\n", "B", "2-pebble", "3-pebble",
              "hom(C3,B)");

  Budget unlimited = Budget::Unlimited();
  auto row = [&](const char* name, const Structure& b) {
    std::printf("%-28s %10s %10s %10s\n", name,
                DuplicatorWinsExistentialKPebbleGame(c3, b, 2) ? "Dup"
                                                               : "Spoiler",
                DuplicatorWinsExistentialKPebbleGame(c3, b, 3) ? "Dup"
                                                               : "Spoiler",
                Engine::Has(c3, b, unlimited).Value() ? "yes" : "no");
  };

  row("directed path P5 (acyclic)", DirectedPathStructure(5));
  row("directed cycle C3", DirectedCycleStructure(3));
  row("directed cycle C4", DirectedCycleStructure(4));
  row("directed cycle C5", DirectedCycleStructure(5));
  row("directed cycle C6", DirectedCycleStructure(6));
  row("P3 + C4 (has a cycle)",
      DirectedPathStructure(3).DisjointUnion(DirectedCycleStructure(4)));

  std::printf(
      "\nReading the table: with 2 pebbles the Duplicator survives on\n"
      "every structure containing a directed cycle — even C4, where no\n"
      "homomorphism from C3 exists — so q(C3,2) computes cyclicity, a\n"
      "non-first-order query (Proposition 7.9). With 3 pebbles the game\n"
      "matches homomorphism existence: C3 is its own core and has\n"
      "treewidth 2 < 3, so the Dalmau-Kolaitis-Vardi characterization\n"
      "applies.\n");
  return 0;
}
