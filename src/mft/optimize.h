// MFT optimizations (Section 4.1 of the paper).
//
// The XQuery-to-MFT translation introduces many redundant accumulating
// parameters (one per in-scope variable); Section 5 shows the unoptimized
// transducers buffer the whole input and often run out of memory. Four
// semantics-preserving rewrites fix this:
//
//   1. Unused parameter reduction    — drop parameters that never reach the
//                                      output (the paper's fixpoint over the
//                                      "necessary" set S).
//   2. Constant parameter reduction  — drop parameters always instantiated
//                                      with the same ground forest.
//   3. Stay-move removal             — inline states whose rules are all of
//                                      the stay form q(%, ys) -> f.
//   4. Unreachable state removal     — drop states not reachable from the
//                                      initial state.
//
// The passes interact, so OptimizeMft runs them to a global fixpoint.
#ifndef XQMFT_MFT_OPTIMIZE_H_
#define XQMFT_MFT_OPTIMIZE_H_

#include <string>

#include "mft/mft.h"

namespace xqmft {

/// Which passes to run (all on by default; the ablation bench toggles them).
struct OptimizeOptions {
  bool unused_parameters = true;
  bool constant_parameters = true;
  bool stay_moves = true;
  bool unreachable_states = true;
};

/// Size snapshot of a transducer.
struct MftStats {
  std::size_t states = 0;
  std::size_t rules = 0;
  std::size_t params = 0;  ///< sum of parameter counts over states
  std::size_t size = 0;    ///< the paper's |M|

  std::string ToString() const;
};

MftStats ComputeStats(const Mft& mft);

/// What happened during optimization.
struct OptimizeReport {
  MftStats before;
  MftStats after;
  int iterations = 0;
  int unused_params_removed = 0;
  int constant_params_removed = 0;
  int states_inlined = 0;
  int states_removed = 0;

  std::string ToString() const;
};

/// Runs the enabled passes to a fixpoint and returns the optimized MFT.
Mft OptimizeMft(const Mft& mft, const OptimizeOptions& options = {},
                OptimizeReport* report = nullptr);

// Individual passes (exposed for unit tests and the ablation benchmark).
// Each returns true if it changed the transducer.

/// Pass 1: removes parameters that never appear in any output.
bool RemoveUnusedParameters(Mft* mft, int* removed = nullptr);

/// Pass 2: removes parameters always bound to one ground constant forest.
bool RemoveConstantParameters(Mft* mft, int* removed = nullptr);

/// Pass 3: inlines one stay-form state (q(%, ys) -> f with x0-only calls,
/// no %t, not self-recursive) into all of its call sites.
bool InlineStayStates(Mft* mft, int* inlined = nullptr);

/// Pass 4: removes states unreachable from the initial state.
bool RemoveUnreachableStates(Mft* mft, int* removed = nullptr);

}  // namespace xqmft

#endif  // XQMFT_MFT_OPTIMIZE_H_
