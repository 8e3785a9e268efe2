// Homomorphisms between finite relational structures (Section 2.1).
//
// Deciding whether a homomorphism A -> B exists is the constraint
// satisfaction problem in the Feder-Vardi sense: elements of A are
// variables, elements of B are values, and every tuple of A is a table
// constraint requiring its image to be a tuple of B. The serial search
// kernel (hom/kernel.h, implemented in homomorphism.cc) runs generalized
// arc consistency (AC-3 over tuple constraints) inside a
// smallest-domain-first backtracking search, or plain backtracking as the
// naive baseline.
//
// Every homomorphism question — has, find, count, enumerate — is asked
// through the engine (engine/engine.h) with an EngineConfig; by
// Chandra-Merlin (Thm 2.1) that one surface also answers CQ evaluation
// and containment. This header keeps only the witness checker the engine
// and its callers use to certify answers.

#ifndef HOMPRES_HOM_HOMOMORPHISM_H_
#define HOMPRES_HOM_HOMOMORPHISM_H_

#include <vector>

#include "structure/structure.h"

namespace hompres {

// True iff h maps every tuple of a to a tuple of b (and is total/in-range).
bool VerifyHomomorphism(const Structure& a, const Structure& b,
                        const std::vector<int>& h);

}  // namespace hompres

#endif  // HOMPRES_HOM_HOMOMORPHISM_H_
