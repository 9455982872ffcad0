#include "resilience/fault_injector.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cellnpdp::resilience {

bool fault_site_from_name(const std::string& name, FaultSite* out) {
  for (int s = 0; s < kFaultSiteCount; ++s) {
    if (name == fault_site_name(static_cast<FaultSite>(s))) {
      *out = static_cast<FaultSite>(s);
      return true;
    }
  }
  return false;
}

namespace {

/// Whether `x` is finite and in [lo, hi): where the float-to-integer casts
/// of the decoder below are defined.
bool castable(double x, double lo, double hi) {
  return std::isfinite(x) && x >= lo && x < hi;
}

constexpr double kTwo63 = 0x1p63, kTwo64 = 0x1p64;

}  // namespace

bool fault_plan_from_json_text(const std::string& text, FaultPlan* out,
                               std::string* err) {
  JsonValue root;
  if (!json_parse(text, root, err)) return false;
  auto fail = [err](const std::string& msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  if (!root.is_object()) return fail("fault plan must be a JSON object");

  FaultPlan plan;
  if (root.has("seed")) {
    const JsonValue& s = root.at("seed");
    if (!s.is_number() || !castable(s.number, 0, kTwo64))
      return fail("\"seed\" must be a number in [0, 2^64)");
    plan.seed = static_cast<std::uint64_t>(s.number);
  }
  if (root.has("faults")) {
    const JsonValue& faults = root.at("faults");
    if (!faults.is_array()) return fail("\"faults\" must be an array");
    for (const JsonValue& f : faults.arr) {
      if (!f.is_object()) return fail("each fault must be an object");
      if (!f.has("site") || !f.at("site").is_string())
        return fail("each fault needs a string \"site\"");
      FaultRule rule;
      if (!fault_site_from_name(f.at("site").str, &rule.site))
        return fail("unknown fault site \"" + f.at("site").str + "\"");
      if (plan.rule_for(rule.site) != nullptr)
        return fail("duplicate rule for site \"" + f.at("site").str + "\"");
      if (f.has("rate")) {
        const JsonValue& r = f.at("rate");
        if (!r.is_number() || r.number < 0 || r.number > 1)
          return fail("\"rate\" must be a number in [0, 1]");
        rule.rate = r.number;
      }
      if (f.has("max_fires")) {
        const JsonValue& m = f.at("max_fires");
        if (!m.is_number() || !castable(m.number, -kTwo63, kTwo63))
          return fail("\"max_fires\" must be a number in [-2^63, 2^63)");
        rule.max_fires = static_cast<std::int64_t>(m.number);
      }
      if (f.has("stall_ms")) {
        const JsonValue& m = f.at("stall_ms");
        if (!m.is_number() || !castable(m.number, 0, kTwo63))
          return fail("\"stall_ms\" must be a number in [0, 2^63)");
        rule.stall_ms = static_cast<std::int64_t>(m.number);
      }
      plan.rules.push_back(rule);
    }
  }
  *out = std::move(plan);
  return true;
}

bool fault_plan_from_file(const std::string& path, FaultPlan* out,
                          std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot open fault plan file: " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return fault_plan_from_json_text(ss.str(), out, err);
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (int s = 0; s < kFaultSiteCount; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    sites_[s].rule = plan_.rule_for(site);
    if (sites_[s].rule != nullptr)
      sites_[s].injected = &obs::metrics().counter(
          std::string("fault.injected.") + fault_site_name(site));
  }
}

bool FaultInjector::fire(FaultSite site, std::int64_t k1, std::int64_t k2) {
  SiteState& st = sites_[static_cast<int>(site)];
  const FaultRule* rule = st.rule;
  if (rule == nullptr || rule->rate <= 0) return false;
  const std::int64_t occurrence =
      st.occ.fetch_add(1, std::memory_order_relaxed);
  // The decision is a pure function of (plan seed, site, occurrence), so a
  // replay of the same execution makes identical decisions.
  SplitMix64 rng(plan_.seed ^
                 (static_cast<std::uint64_t>(site) + 1) * 0xD6E8FEB86659FD93ull ^
                 static_cast<std::uint64_t>(occurrence) * 0x9E3779B97F4A7C15ull);
  if (rng.next_unit() >= rule->rate) return false;

  std::lock_guard<std::mutex> lk(mu_);
  if (rule->max_fires >= 0 &&
      st.fired.load(std::memory_order_relaxed) >= rule->max_fires)
    return false;
  st.fired.fetch_add(1, std::memory_order_relaxed);
  if (log_.size() < kLogCap) log_.push_back(Fired{site, occurrence, k1, k2});
  if (st.injected != nullptr) st.injected->add();
  CELLNPDP_TRACE_INSTANT("fault", fault_site_name(site), k1, k2);
  return true;
}

std::int64_t FaultInjector::stall_ms(FaultSite site) const {
  const FaultRule* rule = sites_[static_cast<int>(site)].rule;
  return rule != nullptr ? rule->stall_ms : 0;
}

std::int64_t FaultInjector::occurrences(FaultSite site) const {
  return sites_[static_cast<int>(site)].occ.load(std::memory_order_relaxed);
}

std::int64_t FaultInjector::fired_count(FaultSite site) const {
  return sites_[static_cast<int>(site)].fired.load(std::memory_order_relaxed);
}

std::vector<FaultInjector::Fired> FaultInjector::fired_log() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_;
}

void FaultInjector::write_log(std::ostream& os) const {
  const std::vector<Fired> log = fired_log();
  JsonWriter w(os);
  w.begin_object();
  w.kv("seed", plan_.seed);
  w.key("fired").begin_array();
  for (const Fired& f : log) {
    w.begin_object();
    w.kv("site", fault_site_name(f.site));
    w.kv("occurrence", f.occurrence);
    w.kv("k1", f.k1);
    w.kv("k2", f.k2);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace cellnpdp::resilience
