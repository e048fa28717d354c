#include "chaos/fault_schedule.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace ahb::chaos {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::SetLoss, "set-loss"},
    {FaultKind::SetBurst, "set-burst"},
    {FaultKind::SetDelay, "set-delay"},
    {FaultKind::SetDuplication, "set-duplication"},
    {FaultKind::LinkDown, "link-down"},
    {FaultKind::LinkUp, "link-up"},
    {FaultKind::Partition, "partition"},
    {FaultKind::Heal, "heal"},
    {FaultKind::CrashParticipant, "crash-participant"},
    {FaultKind::CrashCoordinator, "crash-coordinator"},
    {FaultKind::Leave, "leave"},
    {FaultKind::Rejoin, "rejoin"},
    {FaultKind::SetDrift, "set-drift"},
    {FaultKind::CorruptPayload, "corrupt-payload"},
    {FaultKind::SetClockOffset, "set-clock-offset"},
    {FaultKind::WrapClock, "wrap-clock"},
    {FaultKind::AsymmetricStorm, "asymmetric-storm"},
    {FaultKind::ChurnStorm, "churn-storm"},
};

constexpr Variant kVariants[] = {
    Variant::Binary,   Variant::RevisedBinary, Variant::TwoPhase,
    Variant::Static,   Variant::Expanding,     Variant::Dynamic,
};

// --- minimal flat-JSON field scanner -------------------------------------
//
// The schedule format is flat JSON objects with known keys, so a full
// JSON parser would be dead weight; `find_field` locates `"key":` and
// returns a pointer to the start of its value token.

const char* find_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  const char* value = line.c_str() + pos + needle.size();
  while (*value == ' ') ++value;
  return value;
}

bool read_int(const std::string& line, const char* key, std::int64_t& out) {
  const char* value = find_field(line, key);
  if (value == nullptr) return false;
  char* end = nullptr;
  out = std::strtoll(value, &end, 10);
  return end != value;
}

bool read_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const char* value = find_field(line, key);
  if (value == nullptr) return false;
  char* end = nullptr;
  out = std::strtoull(value, &end, 10);
  return end != value;
}

bool read_double(const std::string& line, const char* key, double& out) {
  const char* value = find_field(line, key);
  if (value == nullptr) return false;
  char* end = nullptr;
  out = std::strtod(value, &end);
  return end != value;
}

bool read_bool(const std::string& line, const char* key, bool& out) {
  const char* value = find_field(line, key);
  if (value == nullptr) return false;
  if (std::strncmp(value, "true", 4) == 0) {
    out = true;
    return true;
  }
  if (std::strncmp(value, "false", 5) == 0) {
    out = false;
    return true;
  }
  return false;
}

bool read_string(const std::string& line, const char* key, std::string& out) {
  const char* value = find_field(line, key);
  if (value == nullptr || *value != '"') return false;
  const char* end = std::strchr(value + 1, '"');
  if (end == nullptr) return false;
  out.assign(value + 1, end);
  return true;
}

bool fits_int(std::int64_t value) {
  return value >= std::numeric_limits<int>::min() &&
         value <= std::numeric_limits<int>::max();
}

std::string format_action(const FaultAction& action) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"kind\": \"%s\", \"at\": %" PRId64
                ", \"a\": %d, \"b\": %d, \"p\": %.17g, \"q\": %.17g, "
                "\"r\": %.17g, \"d1\": %" PRId64 ", \"d2\": %" PRId64 "}",
                to_string(action.kind), action.at, action.a, action.b,
                action.p, action.q, action.r, action.d1, action.d2);
  return buf;
}

}  // namespace

const char* to_string(FaultKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_string(const std::string& name) {
  for (const auto& entry : kKindNames) {
    if (name == entry.name) return entry.kind;
  }
  return std::nullopt;
}

std::optional<Variant> variant_from_string(const std::string& name) {
  for (const Variant v : kVariants) {
    if (name == proto::to_string(v)) return v;
  }
  return std::nullopt;
}

bool FaultAction::out_of_spec(const proto::Timing& timing) const {
  switch (kind) {
    case FaultKind::SetDelay:
      return d2 > timing.tmin / 2;
    case FaultKind::SetDrift:
      return d1 != d2;
    case FaultKind::SetClockOffset:
      // Any register jump breaks the rate-1 clock assumption; the
      // guard only makes the *reaction* fail-safe (fence), it cannot
      // make the resulting inactivation an explained one.
      return d1 != 0;
    default:
      return false;
  }
}

bool FaultSchedule::out_of_spec(const proto::Timing& timing) const {
  for (const auto& action : actions) {
    if (action.out_of_spec(timing)) return true;
  }
  return false;
}

bool RunSpec::out_of_spec() const {
  for (const auto& action : schedule.actions) {
    switch (action.kind) {
      case FaultKind::CorruptPayload:
        // With validation the receiver turns corruption into message
        // destruction (in spec); without it, corrupted payloads reach
        // the engine.
        if (!wire_validation && action.p > 0) return true;
        break;
      case FaultKind::WrapClock:
        // The wrap preserves ages, so only the guard-off ordered
        // comparison misreads it.
        if (!clock_guard) return true;
        break;
      default:
        if (action.out_of_spec(timing())) return true;
        break;
    }
  }
  return false;
}

std::string serialize_run(const RunSpec& spec) {
  // The guard fields are emitted only when off so every pre-existing
  // artifact — and its campaign fingerprint — stays byte-identical.
  char guards[96] = "";
  if (!spec.wire_validation || !spec.clock_guard) {
    std::snprintf(guards, sizeof guards,
                  ", \"wire_validation\": %s, \"clock_guard\": %s",
                  spec.wire_validation ? "true" : "false",
                  spec.clock_guard ? "true" : "false");
  }
  char header[400];
  std::snprintf(header, sizeof header,
                "{\"schedule\": \"ahb-chaos\", \"variant\": \"%s\", "
                "\"tmin\": %" PRId64 ", \"tmax\": %" PRId64
                ", \"fixed_bounds\": %s, \"receive_priority\": %s, "
                "\"participants\": %d, \"seed\": %" PRIu64
                ", \"horizon\": %" PRId64 "%s}",
                proto::to_string(spec.variant), spec.tmin, spec.tmax,
                spec.fixed_bounds ? "true" : "false",
                spec.receive_priority ? "true" : "false", spec.participants,
                spec.seed, spec.horizon, guards);
  std::string out = header;
  out += '\n';
  for (const auto& action : spec.schedule.actions) {
    out += format_action(action);
    out += '\n';
  }
  return out;
}

std::optional<RunSpec> parse_run(const std::string& text) {
  RunSpec spec;
  std::size_t pos = 0;
  bool header_seen = false;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    if (!header_seen) {
      std::string magic;
      if (!read_string(line, "schedule", magic) || magic != "ahb-chaos") {
        return std::nullopt;
      }
      std::string variant_name;
      std::int64_t participants = 0;
      if (!read_string(line, "variant", variant_name) ||
          !read_int(line, "tmin", spec.tmin) ||
          !read_int(line, "tmax", spec.tmax) ||
          !read_bool(line, "fixed_bounds", spec.fixed_bounds) ||
          !read_bool(line, "receive_priority", spec.receive_priority) ||
          !read_int(line, "participants", participants) ||
          !read_u64(line, "seed", spec.seed) ||
          !read_int(line, "horizon", spec.horizon)) {
        return std::nullopt;
      }
      // Optional guard fields (absent in pre-corruption artifacts).
      read_bool(line, "wire_validation", spec.wire_validation);
      read_bool(line, "clock_guard", spec.clock_guard);
      const auto variant = variant_from_string(variant_name);
      // Every timing law a run adds to a time is at most 8 * tmax (the
      // largest, proto::r2_explanation_window, is r1_detection_slack <=
      // 4 * tmax plus r3_detection_slack <= 4 * tmax), and times run up
      // to the horizon: horizon + 8 * tmax must fit int64.
      Time span = 0;
      if (!variant || participants < 1 || !fits_int(participants) ||
          spec.horizon <= 0 || !spec.timing().valid() ||
          __builtin_mul_overflow(spec.tmax, 8, &span) ||
          __builtin_add_overflow(spec.horizon, span, &span)) {
        return std::nullopt;
      }
      spec.variant = *variant;
      spec.participants = static_cast<int>(participants);
      header_seen = true;
      continue;
    }

    FaultAction action;
    std::string kind_name;
    std::int64_t a = 0;
    std::int64_t b = 0;
    if (!read_string(line, "kind", kind_name) ||
        !read_int(line, "at", action.at) || !read_int(line, "a", a) ||
        !read_int(line, "b", b) || !read_double(line, "p", action.p) ||
        !read_double(line, "q", action.q) ||
        !read_double(line, "r", action.r) ||
        !read_int(line, "d1", action.d1) ||
        !read_int(line, "d2", action.d2)) {
      return std::nullopt;
    }
    const auto kind = fault_kind_from_string(kind_name);
    // Actions fire at the run's start or later, on node ids an int
    // holds (anything else would be truncated into a different node).
    if (!kind || action.at < 0 || !fits_int(a) || !fits_int(b)) {
      return std::nullopt;
    }
    // A drifting clock scales elapsed global time by d1 / d2 in int64
    // (hb::ScaleCluster's NodeClock): the products must fit over the
    // whole run. (Non-positive rates are a no-op, as in the runner.)
    Time scaled = 0;
    if (*kind == FaultKind::SetDrift && action.d1 > 0 && action.d2 > 0 &&
        (__builtin_mul_overflow(spec.horizon, action.d1, &scaled) ||
         __builtin_mul_overflow(spec.horizon, action.d2, &scaled))) {
      return std::nullopt;
    }
    action.kind = *kind;
    action.a = static_cast<int>(a);
    action.b = static_cast<int>(b);
    spec.schedule.actions.push_back(action);
  }
  if (!header_seen) return std::nullopt;
  return spec;
}

}  // namespace ahb::chaos
