#ifndef MONDET_TESTING_CORPUS_H_
#define MONDET_TESTING_CORPUS_H_

#include <cstddef>
#include <optional>
#include <string>

#include "testing/oracle.h"

namespace mondet {
namespace testing {

/// The `.repro` corpus format (tests/corpus/cases/): a header naming the
/// oracle, profile and seed, then one bracketed section per populated
/// FuzzCase field —
///
///   oracle: eval-differential
///   profile: eval
///   seed: 17
///   [program]
///   I1(v0) :- E1(v0).
///   [instance]
///   elements 5
///   E1(e0).
///   [schedule]
///   step
///   +E2(e0,e3).
///   -E1(e2).
///   [view VReach]
///   goal VR
///   VR(x) :- E1(x).
///   VR(x) :- E2(x,y), VR(y).
///   [view VA2]
///   atomic E2
///   [tm]
///   machine eraser
///   input 1 1
///   steps 200
///
/// Programs re-parse on the profile's pre-seeded vocabulary (predicate
/// ids are stable by construction); instance elements are `e<id>` and
/// re-parsed by index, so round-trips are id-exact. Failure messages
/// (DescribeCase) and saved repros share this one rendering.
std::string SerializeCase(const FuzzCase& c);

/// Upper bounds on the sizes a `.repro` file may declare — `elements N`
/// of an `[instance]` and `states N` of an `[nta]` section. The loader
/// allocates what these declare, so they are capped far above anything
/// the generators or the shrinker produce (tens of elements, a handful
/// of states).
inline constexpr size_t kMaxReproElements = size_t{1} << 16;
inline constexpr size_t kMaxReproStates = size_t{1} << 16;

/// Parses the `.repro` format; nullopt with `*error` set on malformed
/// input (unknown profile, unparseable rule/fact, out-of-range element).
/// Every number (`seed:`, `elements`, `e<index>`, `input`, `steps`,
/// `width`, `states`, `finals`, transition states) must be a whole
/// unsigned decimal that fits its field — no sign, no trailing text —
/// else the error is an `error[repro] line L:C` diagnostic at the token.
std::optional<FuzzCase> ParseCaseText(const std::string& text,
                                      std::string* error);

/// File wrappers around SerializeCase / ParseCaseText.
std::optional<FuzzCase> LoadCaseFile(const std::string& path,
                                     std::string* error);
bool SaveCaseFile(const FuzzCase& c, const std::string& path,
                  std::string* error);

}  // namespace testing
}  // namespace mondet

#endif  // MONDET_TESTING_CORPUS_H_
