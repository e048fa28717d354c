#include "hb/failure_detector.hpp"

#include "util/contracts.hpp"

namespace ahb::hb {

FailureDetector::FailureDetector(const Config& config, int participants,
                                 int suspect_after_misses)
    : coordinator_(config, participants),
      suspect_after_misses_(suspect_after_misses) {
  AHB_EXPECTS(suspect_after_misses >= 1);
  // The suspicion gradient comes from the halving ladder; the two-phase
  // variant jumps straight to tmin and offers no gradient.
  AHB_EXPECTS(!proto::rules_for(config.variant).two_phase);
}

int FailureDetector::missed_rounds(int id) const {
  const Time tmax = coordinator_.config().tmax;
  const Time wait = coordinator_.member_wait(id);
  int misses = 0;
  for (Time w = tmax; w > wait && w > 0; w /= 2) ++misses;
  return misses;
}

bool FailureDetector::suspects(int id) const {
  if (down()) return true;
  if (!coordinator_.is_member(id)) return false;
  return missed_rounds(id) >= suspect_after_misses_;
}

std::vector<int> FailureDetector::suspected() const {
  std::vector<int> out;
  for (const int id : coordinator_.member_ids()) {
    if (suspects(id)) out.push_back(id);
  }
  return out;
}

}  // namespace ahb::hb
