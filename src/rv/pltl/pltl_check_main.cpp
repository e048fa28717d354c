// Build-time validation of the shipped formula files: every embedded
// formula must parse, round-trip through the printer, and compile
// against a spread of timing points and at 10,000 participants, so a
// grammar or vocabulary regression, or a formula that outgrows the
// instruction cap at scale, fails the build instead of the first
// campaign that attaches the formulas. Run automatically as a
// POST_BUILD step of the pltl_check target.
//
// It also prints, per formula, how many of its evaluation units are
// stable at event-free positions (DESIGN.md "Settled-range
// evaluation"), so the build log shows which formulas take the
// monitor's fast path:
//   pltl_check: s2 at n=4: 5 units, 5 stable
#include <cstdio>
#include <string_view>

#include "rv/pltl/eval.hpp"
#include "rv/pltl/formulas.hpp"

namespace pltl = ahb::rv::pltl;

namespace {

/// One line: the units of `compiled` and how many of them are stable.
void print_stable(std::string_view name, int participants,
                  const pltl::Compiled& compiled) {
  int units = 1;  // the top range
  int stable = compiled.top_stable ? 1 : 0;
  for (const auto& expansion : compiled.expansions) {
    for (const auto& range : expansion.instances) {
      ++units;
      stable += range.stable ? 1 : 0;
    }
  }
  std::printf("pltl_check: %.*s at n=%d: %d units, %d stable\n",
              static_cast<int>(name.size()), name.data(), participants, units,
              stable);
}

}  // namespace

int main() {
  const pltl::BindParams points[] = {
      {ahb::proto::Variant::Binary, {2, 10}, true, 1, 2},
      {ahb::proto::Variant::Binary, {6, 10}, true, 3, 2},
      {ahb::proto::Variant::Static, {4, 20}, false, 2, 2},
      {ahb::proto::Variant::Dynamic, {4, 20}, true, 4, 3},
      // Scale-bench size: quantifier expansion must stay under the
      // compiler's instruction cap.
      {ahb::proto::Variant::Static, {4, 10}, true, 10000, 2},
  };
  // The point whose stable units are printed.
  const pltl::BindParams& shown = points[3];
  int failures = 0;
  for (const auto& formula : pltl::shipped_formulas()) {
    const pltl::ParseResult parsed = pltl::parse(formula.text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "pltl_check: %.*s: parse error at offset %zu: %s\n",
                   static_cast<int>(formula.name.size()), formula.name.data(),
                   parsed.error_at, parsed.error.c_str());
      ++failures;
      continue;
    }
    const pltl::ParseResult reparsed = pltl::parse(pltl::print(*parsed.formula));
    if (!reparsed.ok() || !pltl::equal(*parsed.formula, *reparsed.formula)) {
      std::fprintf(stderr, "pltl_check: %.*s: print/parse round-trip failed\n",
                   static_cast<int>(formula.name.size()), formula.name.data());
      ++failures;
      continue;
    }
    for (const auto& params : points) {
      const pltl::CompileResult compiled =
          pltl::compile(*parsed.formula, params);
      if (!compiled.ok()) {
        std::fprintf(stderr, "pltl_check: %.*s: compile error: %s\n",
                     static_cast<int>(formula.name.size()), formula.name.data(),
                     compiled.error.c_str());
        ++failures;
        break;
      }
      if (&params == &shown) {
        print_stable(formula.name, params.participants, compiled.compiled);
      }
    }
  }
  if (failures == 0) {
    std::printf("pltl_check: %zu shipped formulas ok\n",
                pltl::shipped_formulas().size());
  }
  return failures == 0 ? 0 : 1;
}
