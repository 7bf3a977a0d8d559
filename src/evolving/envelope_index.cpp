#include "evolving/envelope_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/variable_table.hpp"

namespace evps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Variable bounds for one window: `t` ranges over the window's elapsed-time
/// interval; nothing else is bound (indexable parts read nothing else).
class WindowBounds final : public VarBounds {
 public:
  WindowBounds(VarId t, Interval t_range) noexcept : t_(t), t_range_(t_range) {}
  [[nodiscard]] Interval bounds(VarId var) const override {
    return var == t_ ? t_range_ : Interval::unknown();
  }

 private:
  VarId t_;
  Interval t_range_;
};

/// The publication value as the double every comparison with a double bound
/// uses, when that conversion is exact and ordered (not NaN, not a string,
/// not an integer beyond 2^53 that rounds).
bool ordinary_number(const Value& v, double& out) noexcept {
  if (v.is_double()) {
    out = v.as_double();
    return !std::isnan(out);
  }
  if (!v.is_int()) return false;
  const std::int64_t i = v.as_int();
  out = static_cast<double>(i);
  return out >= -0x1p63 && out < 0x1p63 && static_cast<std::int64_t>(out) == i;
}

/// Width used to pick the key: empty ranges first (the part is dormant for
/// the window), then the narrowest.
double width_of(double lo, double hi) noexcept {
  if (!(lo <= hi)) return -kInf;
  return lo == hi ? 0.0 : hi - lo;
}

}  // namespace

bool EnvelopeIndex::indexable(std::span<const CompiledPredicate> preds, Duration window) {
  if (window <= Duration::zero()) return false;
  const VarId t = elapsed_time_var_id();
  bool bounding = false;
  for (const CompiledPredicate& cp : preds) {
    for (const ExprProgram::Insn& insn : cp.program().code()) {
      if (insn.op == ExprProgram::Op::kLoadVar && insn.var != t) return false;
    }
    bounding = bounding || cp.op() != RelOp::kNe;
  }
  return bounding;
}

void EnvelopeIndex::add(std::uint32_t slot, std::span<const CompiledPredicate> preds,
                        SimTime epoch, Duration window, std::uint64_t stagger) {
  if (slot >= entries_.size()) entries_.resize(static_cast<std::size_t>(slot) + 1);
  Entry& e = entries_[slot];
  const std::uint32_t stamp = e.stamp + 1;
  e = Entry{};
  e.stamp = stamp;
  e.preds = preds.data();
  e.npreds = static_cast<std::uint32_t>(preds.size());
  e.epoch = epoch;
  e.window_us = std::clamp<std::int64_t>(window.count_micros(), 1, kMaxWindowUs);
  e.anchor_us = -static_cast<std::int64_t>(stagger % static_cast<std::uint64_t>(e.window_us));
  ++parts_;
  windows_per_us_ += 1.0 / static_cast<double>(e.window_us);
  if (!suspended_) pending_.push_back(slot);
}

void EnvelopeIndex::remove(std::uint32_t slot) {
  if (slot >= entries_.size() || entries_[slot].preds == nullptr) return;
  unlink(slot);
  Entry& e = entries_[slot];
  e.preds = nullptr;
  ++e.stamp;  // its pending heap entry goes stale
  --parts_;
  windows_per_us_ = parts_ == 0 ? 0.0 : windows_per_us_ - 1.0 / static_cast<double>(e.window_us);
}

void EnvelopeIndex::suspend() {
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) unlink(slot);
  due_.clear();
  pending_.clear();
  suspended_ = true;
}

void EnvelopeIndex::advance(SimTime now) {
  const std::int64_t now_us = now.micros();
  if (suspended_ || now_us < last_now_us_) {
    // Resuming, or the clock moved backwards (a replay or a test host) so
    // windows may lie ahead of `now`: every part is anchored afresh.
    due_.clear();
    pending_.clear();
    for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
      if (entries_[slot].preds == nullptr) continue;
      unlink(slot);
      pending_.push_back(slot);
    }
    suspended_ = false;
  }
  last_now_us_ = now_us;

  for (const std::uint32_t slot : pending_) {
    const Entry& e = entries_[slot];
    if (e.preds == nullptr || e.key != kNil) continue;  // removed, or listed twice
    anchor(slot, now_us);
  }
  pending_.clear();

  while (!due_.empty() && due_.front().end_us < now_us) {
    std::pop_heap(due_.begin(), due_.end(), DueLater{});
    const Due due = due_.back();
    due_.pop_back();
    const Entry& e = entries_[due.slot];
    if (e.preds == nullptr || e.stamp != due.stamp) continue;
    unlink(due.slot);
    anchor(due.slot, now_us);
  }

  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    if (degraded(keys_[k])) retune(k);
  }
}

void EnvelopeIndex::anchor(std::uint32_t slot, std::int64_t now_us) {
  Entry& e = entries_[slot];
  // Whole windows along the part's grid, forwards or backwards, so the
  // first window's stagger is kept: now ∈ [a, a + W).
  const std::int64_t offset = now_us - e.anchor_us;
  std::int64_t windows = offset / e.window_us;
  if (offset % e.window_us < 0) --windows;
  const std::int64_t anchor_us = e.anchor_us + windows * e.window_us;
  e.anchor_us = anchor_us;
  ++e.stamp;
  ++anchorings_;
  // `t` is (now - epoch) in microseconds converted to double seconds, a
  // monotone conversion, so the window's endpoints bound every `t` in it.
  const SimTime start = SimTime::from_micros(anchor_us);
  const SimTime end = SimTime::from_micros(anchor_us + e.window_us);
  const WindowBounds vars(elapsed_time_var_id(),
                          Interval::range((start - e.epoch).count_seconds(),
                                          (end - e.epoch).count_seconds()));
  ranges_.clear();
  for (std::size_t i = 0; i < e.npreds; ++i) {
    const CompiledPredicate& cp = e.preds[i];
    if (cp.op() == RelOp::kNe) continue;  // `!=` accepts NaN bounds: no envelope
    const Interval iv = eval_interval(cp.program(), vars, iv_stack_);
    double lo = -kInf;
    double hi = kInf;
    if (iv.numeric_empty()) {
      lo = kInf;  // a NaN bound satisfies no operator but `!=`
      hi = -kInf;
    } else {
      const double iv_lo = std::isnan(iv.lo) ? -kInf : iv.lo;
      const double iv_hi = std::isnan(iv.hi) ? kInf : iv.hi;
      switch (cp.op()) {
        case RelOp::kLt:
        case RelOp::kLe: hi = iv_hi; break;
        case RelOp::kGt:
        case RelOp::kGe: lo = iv_lo; break;
        case RelOp::kEq:
          lo = iv_lo;
          hi = iv_hi;
          break;
        case RelOp::kNe: break;
      }
    }
    const auto it = std::find_if(ranges_.begin(), ranges_.end(),
                                 [&cp](const AttrRange& r) { return r.attr == cp.attr(); });
    if (it == ranges_.end()) {
      ranges_.push_back(AttrRange{cp.attr(), lo, hi});
    } else {
      it->lo = std::max(it->lo, lo);
      it->hi = std::min(it->hi, hi);
    }
  }
  // indexable() guarantees one non-`!=` predicate, so ranges_ is non-empty.
  // The narrowest range keys the part; the next one filters its hits.
  const AttrRange* best = &ranges_.front();
  const AttrRange* second = nullptr;
  for (const AttrRange& r : ranges_) {
    if (&r == best) continue;
    if (width_of(r.lo, r.hi) < width_of(best->lo, best->hi)) {
      second = best;
      best = &r;
    } else if (second == nullptr || width_of(r.lo, r.hi) < width_of(second->lo, second->hi)) {
      second = &r;
    }
  }
  e.lo = best->lo;
  e.hi = best->hi;
  e.attr2 = kInvalidAttrId;
  if (second != nullptr && width_of(second->lo, second->hi) < kInf) {
    e.attr2 = second->attr;
    e.lo2 = second->lo;
    e.hi2 = second->hi;
  }
  place(slot, key_for(best->attr));
  due_.push_back(Due{anchor_us + e.window_us, slot, e.stamp});
  std::push_heap(due_.begin(), due_.end(), DueLater{});
}

std::uint32_t EnvelopeIndex::key_for(AttrId attr) {
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    if (keys_[k].attr == attr) return k;
  }
  keys_.emplace_back().attr = attr;
  return static_cast<std::uint32_t>(keys_.size() - 1);
}

std::uint32_t EnvelopeIndex::bucket(const Key& key, double x) noexcept {
  // Monotone in x (and 0 for every x while untuned).
  const double f = (x - key.origin) * key.inv_width;
  if (!(f > 0.0)) return 0;
  const auto last = static_cast<std::uint32_t>(key.heads.size() - 1);
  if (f >= static_cast<double>(last)) return last;
  return static_cast<std::uint32_t>(f);
}

std::uint32_t& EnvelopeIndex::head(Key& key, std::uint32_t list) noexcept {
  if (list == kWide) return key.wide_head;
  if (list == kDormant) return key.dormant_head;
  return key.heads[list];
}

void EnvelopeIndex::place(std::uint32_t slot, std::uint32_t key_index) {
  Key& key = keys_[key_index];
  Entry& e = entries_[slot];
  if (!(e.lo <= e.hi)) {
    e.list = kDormant;
  } else {
    const std::uint32_t low = bucket(key, e.lo);
    if (bucket(key, e.hi) - low > kSpan) {
      e.list = kWide;
      ++key.wide;
    } else {
      e.list = low;
      if (key.inv_width > 0.0 && std::isfinite(e.lo) && std::isfinite(e.hi) &&
          (e.lo < key.origin || e.hi > key.top)) {
        ++key.drift;
      }
    }
  }
  std::uint32_t& first = head(key, e.list);
  e.key = key_index;
  e.prev = kNil;
  e.next = first;
  if (first != kNil) entries_[first].prev = slot;
  first = slot;
  ++key.count;
}

void EnvelopeIndex::unlink(std::uint32_t slot) {
  Entry& e = entries_[slot];
  if (e.key == kNil) return;  // not anchored yet
  Key& key = keys_[e.key];
  if (e.prev != kNil) {
    entries_[e.prev].next = e.next;
  } else {
    head(key, e.list) = e.next;
  }
  if (e.next != kNil) entries_[e.next].prev = e.prev;
  --key.count;
  if (e.list == kWide) --key.wide;
  e.prev = e.next = kNil;
  e.key = kNil;
}

bool EnvelopeIndex::degraded(const Key& key) noexcept {
  return key.count >= 2 * key.tuned_count + 16 || key.drift > key.count / 4 + 8 ||
         key.wide > key.tuned_wide + key.count / 8 + 8;
}

void EnvelopeIndex::retune(std::uint32_t key_index) {
  Key& key = keys_[key_index];
  // Collect the key's listed (non-dormant) parts and their finite widths.
  slots_.clear();
  widths_.clear();
  double lowest = kInf;
  double highest = -kInf;
  const auto collect = [&](std::uint32_t first) {
    for (std::uint32_t s = first; s != kNil; s = entries_[s].next) {
      slots_.push_back(s);
      const Entry& e = entries_[s];
      if (!std::isfinite(e.lo) || !std::isfinite(e.hi)) continue;
      widths_.push_back(e.hi - e.lo);
      lowest = std::min(lowest, e.lo);
      highest = std::max(highest, e.hi);
    }
  };
  for (const std::uint32_t first : key.heads) collect(first);
  collect(key.wide_head);

  // Buckets a 90th-percentile range spans kSpan of; at most ~2 buckets per
  // part. Degenerate data (no finite spread) stays in one bucket.
  double bucket_width = 0.0;
  std::size_t buckets = 1;
  const double extent = highest - lowest;
  if (widths_.size() >= 2 && std::isfinite(extent) && extent > 0.0) {
    const auto q = widths_.begin() + static_cast<std::ptrdiff_t>(widths_.size() * 9 / 10);
    std::nth_element(widths_.begin(), q, widths_.end());
    bucket_width = *q / kSpan;
    const std::size_t max_buckets = 2 * slots_.size() + 16;
    if (!(bucket_width > 0.0) || extent / bucket_width >= static_cast<double>(max_buckets)) {
      bucket_width = extent / static_cast<double>(max_buckets - 1);
    }
    buckets = static_cast<std::size_t>(extent / bucket_width) + 1;
    buckets = std::min(buckets, max_buckets);
  }
  const double inv = bucket_width > 0.0 ? 1.0 / bucket_width : 0.0;
  key.origin = std::isfinite(inv) && inv > 0.0 ? lowest : 0.0;
  key.top = std::isfinite(inv) && inv > 0.0 ? highest : 0.0;
  key.inv_width = std::isfinite(inv) ? inv : 0.0;
  if (key.inv_width == 0.0) buckets = 1;

  // Relist: dormant parts keep their list; the rest are placed afresh.
  key.heads.assign(buckets, kNil);
  key.wide_head = kNil;
  key.count -= slots_.size();
  key.wide = 0;
  key.drift = 0;
  for (const std::uint32_t s : slots_) place(s, key_index);
  key.tuned_count = key.count;
  key.tuned_wide = key.wide;
}

void EnvelopeIndex::scan_list(std::uint32_t first, double v, const Publication& pub,
                              std::vector<std::uint32_t>& out) const {
  for (std::uint32_t s = first; s != kNil;) {
    const Entry& e = entries_[s];
    if (e.lo <= v && v <= e.hi) {
      bool admitted = true;
      if (e.attr2 != kInvalidAttrId) {
        // Same rules as the key: a missing attribute cannot match, a value
        // that is not an ordinary number is left to the programs.
        const Value* value = pub.get(e.attr2);
        double v2 = 0.0;
        admitted = value != nullptr &&
                   (!ordinary_number(*value, v2) || (e.lo2 <= v2 && v2 <= e.hi2));
      }
      if (admitted) out.push_back(s);
    }
    s = e.next;
  }
}

void EnvelopeIndex::append_list(std::uint32_t first, std::vector<std::uint32_t>& out) const {
  for (std::uint32_t s = first; s != kNil; s = entries_[s].next) out.push_back(s);
}

void EnvelopeIndex::stab(const Publication& pub, std::vector<std::uint32_t>& out) const {
  for (const Key& key : keys_) {
    if (key.count == 0) continue;
    // Every part keyed here has a non-`!=` predicate on the attribute, and a
    // missing attribute fails every predicate.
    const Value* value = pub.get(key.attr);
    if (value == nullptr) continue;
    double v = 0.0;
    if (!ordinary_number(*value, v)) {
      // Fail closed: the exact programs decide every part of this key.
      for (const std::uint32_t first : key.heads) append_list(first, out);
      append_list(key.wide_head, out);
      append_list(key.dormant_head, out);
      continue;
    }
    const std::uint32_t top = bucket(key, v);
    for (std::uint32_t b = top > kSpan ? top - kSpan : 0; b <= top; ++b) {
      scan_list(key.heads[b], v, pub, out);
    }
    scan_list(key.wide_head, v, pub, out);
  }
}

}  // namespace evps
