#include "evolving/envelope_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/variable_table.hpp"
#include "expr/variable_registry.hpp"

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

/// The largest float not above x (x not NaN), without an out-of-range cast.
float float_below(double x) noexcept {
  constexpr float kMax = std::numeric_limits<float>::max();
  if (std::isinf(x)) return static_cast<float>(x);
  if (x > kMax) return kMax;
  if (x < -kMax) return -std::numeric_limits<float>::infinity();
  const float f = static_cast<float>(x);
  return static_cast<double>(f) > x ? std::nextafter(f, -std::numeric_limits<float>::infinity())
                                    : f;
}

/// The smallest float not below x (x not NaN).
float float_above(double x) noexcept { return -float_below(-x); }

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

bool EnvelopeIndex::monotone_chain(const ExprProgram& prog) {
  using Op = ExprProgram::Op;
  // Abstract stack: a constant's value, or the one value that depends on `t`.
  // Programs deeper than chains need keep the interval path.
  struct Item {
    bool chain;
    double value;
  };
  std::array<Item, 8> stack{};
  std::size_t depth = 0;
  bool loaded = false;
  for (const ExprProgram::Insn& insn : prog.code()) {
    switch (insn.op) {
      case Op::kPushConst:
      case Op::kLoadVar:
        if (depth == stack.size()) return false;
        if (insn.op == Op::kLoadVar) {
          if (loaded || insn.var != elapsed_time_var_id()) return false;
          loaded = true;
        }
        stack[depth++] = Item{insn.op == Op::kLoadVar, insn.k};
        break;
      case Op::kNeg:
        if (depth == 0) return false;
        stack[depth - 1].value = -stack[depth - 1].value;
        break;
      case Op::kFloor:
      case Op::kCeil:
        if (depth == 0 || !stack[depth - 1].chain) return false;
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv: {
        if (depth < 2) return false;
        const Item b = stack[--depth];
        Item& a = stack[depth - 1];
        if (!a.chain && !b.chain) {  // the evaluator's own constant arithmetic
          switch (insn.op) {
            case Op::kAdd: a.value += b.value; break;
            case Op::kSub: a.value -= b.value; break;
            case Op::kMul: a.value *= b.value; break;
            default: a.value /= b.value; break;
          }
          break;
        }
        // One operand is the chain (one load), the other a constant c.
        const double c = a.chain ? b.value : a.value;
        const bool scales = insn.op == Op::kMul || insn.op == Op::kDiv;
        if (!std::isfinite(c) || (scales && c == 0.0) || (insn.op == Op::kDiv && b.chain)) {
          return false;  // inf - inf, inf * 0 and c / t are not monotone or not NaN-free
        }
        a.chain = true;
        break;
      }
      default: return false;
    }
  }
  return loaded && depth == 1 && stack[0].chain;
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
  for (std::size_t i = 0; i < std::min(preds.size(), kMaxChains); ++i) {
    if (preds[i].op() != RelOp::kNe && monotone_chain(preds[i].program())) {
      e.chains |= 1U << i;
    }
  }
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

void EnvelopeIndex::unlist_all() {
  for (Key& key : keys_) {
    for (std::vector<Record>& records : key.lists) records.clear();
    key.wide.clear();
    key.dormant.clear();
    key.count = 0;
  }
  for (Entry& e : entries_) e.key = kNil;
}

void EnvelopeIndex::suspend() {
  unlist_all();
  due_.clear();
  pending_.clear();
  suspended_ = true;
}

void EnvelopeIndex::advance(SimTime now) {
  const std::int64_t now_us = now.micros();
  if (suspended_ || now_us < last_now_us_) {
    // Resuming, or the clock moved backwards (a replay or a test host) so
    // windows may lie ahead of `now`: every part is anchored afresh.
    unlist_all();
    due_.clear();
    pending_.clear();
    for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
      if (entries_[slot].preds != nullptr) pending_.push_back(slot);
    }
    suspended_ = false;
  }
  last_now_us_ = now_us;

  // A bulk of first anchorings re-tunes as it goes, so it never piles up in
  // one list of a coarse grid, and once more at the end, so the grid covers
  // the parts anchored after its last tune.
  bool retuned = false;
  for (const std::uint32_t slot : pending_) {
    const Entry& e = entries_[slot];
    if (e.preds == nullptr || e.key != kNil) continue;  // removed, or listed twice
    anchor(slot, now_us);
    if (degraded(keys_[e.key])) {
      retune(e.key);
      retuned = true;
    }
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
    const Key& key = keys_[k];
    if (degraded(key) || (retuned && key.count != key.tuned_count)) retune(k);
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
  // The match path's scope at the window's ends (these programs read only `t`).
  const EvalScope at_start(nullptr, start, e.epoch);
  const EvalScope at_end(nullptr, end, e.epoch);
  const WindowBounds vars(elapsed_time_var_id(),
                          Interval::range((start - e.epoch).count_seconds(),
                                          (end - e.epoch).count_seconds()));
  ranges_.clear();
  for (std::size_t i = 0; i < e.npreds; ++i) {
    const CompiledPredicate& cp = e.preds[i];
    if (cp.op() == RelOp::kNe) continue;  // `!=` accepts NaN bounds: no envelope
    Interval iv;
    bool exact = false;
    if (i < kMaxChains && ((e.chains >> i) & 1U) != 0) {
      // A monotone chain takes every in-window value between its end values.
      const double first = cp.program().eval(at_start, stack_);
      const double last = cp.program().eval(at_end, stack_);
      if (!std::isnan(first) && !std::isnan(last)) {
        iv = Interval::range(std::min(first, last), std::max(first, last));
        exact = true;
      }
    }
    if (!exact) iv = eval_interval(cp.program(), vars, iv_stack_);
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
  Record record{float_below(best->lo), float_above(best->hi), 0.0F, 0.0F, kInvalidAttrId, slot};
  if (second != nullptr && width_of(second->lo, second->hi) < kInf) {
    record.attr2 = second->attr;
    record.lo2 = float_below(second->lo);
    record.hi2 = float_above(second->hi);
  }
  place(record, key_for(best->attr));
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
  const std::uint32_t last = key.buckets - 1;
  if (f >= static_cast<double>(last)) return last;
  return static_cast<std::uint32_t>(f);
}

void EnvelopeIndex::reserve(std::vector<Record>& records, std::size_t size) {
  records.reserve(size + size / 4 + 8);
}

void EnvelopeIndex::fit(std::vector<Record>& records) {
  if (records.capacity() <= 2 * records.size() + 32) return;
  std::vector<Record> fitted;
  if (!records.empty()) reserve(fitted, records.size());
  fitted.assign(records.begin(), records.end());
  records.swap(fitted);
}

std::vector<EnvelopeIndex::Record>& EnvelopeIndex::list(Key& key, std::uint32_t list) noexcept {
  if (list == kWide) return key.wide;
  if (list == kDormant) return key.dormant;
  return key.lists[list];
}

std::uint32_t EnvelopeIndex::list_for(const Key& key, const Record& record) noexcept {
  if (!(record.lo <= record.hi)) return kDormant;
  const std::uint32_t low = bucket(key, record.lo);
  return bucket(key, record.hi) - low > kSpan ? kWide : low;
}

void EnvelopeIndex::place(const Record& record, std::uint32_t key_index) {
  Key& key = keys_[key_index];
  Entry& e = entries_[record.slot];
  e.list = list_for(key, record);
  if (e.list < kDormant && key.inv_width > 0.0 && std::isfinite(record.lo) &&
      std::isfinite(record.hi) && (record.lo < key.origin || record.hi > key.top)) {
    ++key.drift;
  }
  std::vector<Record>& records = list(key, e.list);
  e.key = key_index;
  e.pos = static_cast<std::uint32_t>(records.size());
  if (records.size() == records.capacity()) reserve(records, records.size());
  records.push_back(record);
  ++key.count;
}

void EnvelopeIndex::unlink(std::uint32_t slot) {
  Entry& e = entries_[slot];
  if (e.key == kNil) return;  // not listed
  Key& key = keys_[e.key];
  std::vector<Record>& records = list(key, e.list);
  // Swap-and-pop: the last record takes this one's place.
  records[e.pos] = records.back();
  entries_[records[e.pos].slot].pos = e.pos;
  records.pop_back();
  --key.count;
  e.key = kNil;
}

bool EnvelopeIndex::degraded(const Key& key) noexcept {
  return key.count >= 2 * key.tuned_count + 16 || key.drift > key.count / 4 + 8 ||
         key.wide.size() > key.tuned_wide + key.count / 8 + 8;
}

void EnvelopeIndex::retune(std::uint32_t key_index) {
  Key& key = keys_[key_index];
  // The finite widths and the extent of the key's listed (non-dormant) ranges.
  widths_.clear();
  std::size_t listed = key.wide.size();
  double lowest = kInf;
  double highest = -kInf;
  const auto measure = [&](const std::vector<Record>& records) {
    for (const Record& r : records) {
      if (!std::isfinite(r.lo) || !std::isfinite(r.hi)) continue;
      widths_.push_back(static_cast<double>(r.hi) - r.lo);
      lowest = std::min<double>(lowest, r.lo);
      highest = std::max<double>(highest, r.hi);
    }
  };
  for (std::uint32_t b = 0; b < key.buckets; ++b) {
    listed += key.lists[b].size();
    measure(key.lists[b]);
  }
  measure(key.wide);

  // Buckets a 90th-percentile range spans kSpan of; at most ~2 buckets per
  // part. Degenerate data (no finite spread) stays in one bucket.
  double bucket_width = 0.0;
  std::size_t buckets = 1;
  const double extent = highest - lowest;
  if (widths_.size() >= 2 && std::isfinite(extent) && extent > 0.0) {
    const auto q = widths_.begin() + static_cast<std::ptrdiff_t>(widths_.size() * 9 / 10);
    std::nth_element(widths_.begin(), q, widths_.end());
    bucket_width = *q / kSpan;
    const std::size_t max_buckets = 2 * listed + 16;
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

  // Relist in place; dormant parts keep their list. A record whose list
  // changes under the new grid moves (swap-and-pop brings the last record to
  // its index); one met again in its new list stays.
  const std::uint32_t old_buckets = key.buckets;
  if (key.lists.size() < buckets) key.lists.resize(buckets);
  key.buckets = static_cast<std::uint32_t>(buckets);
  key.drift = 0;
  const auto relist = [&](std::uint32_t from) {
    const std::vector<Record>& records = list(key, from);
    for (std::size_t i = 0; i < records.size();) {
      const Record r = records[i];
      if (list_for(key, r) == from) {
        ++i;
        continue;
      }
      unlink(r.slot);
      place(r, key_index);
    }
  };
  for (std::uint32_t b = 0; b < std::max(old_buckets, key.buckets); ++b) relist(b);
  relist(kWide);
  // Give back what the old grid needed and the new one does not (the first
  // tune's single bucket held every range, say).
  for (std::vector<Record>& records : key.lists) fit(records);
  fit(key.wide);
  fit(key.dormant);
  key.tuned_count = key.count;
  key.tuned_wide = key.wide.size();
}

void EnvelopeIndex::scan_list(const std::vector<Record>& records, double v,
                              const Publication& pub, std::vector<std::uint32_t>& out) const {
  visited_ += records.size();
  for (const Record& r : records) {
    if (!(r.lo <= v && v <= r.hi)) continue;
    if (r.attr2 != kInvalidAttrId) {
      // Same rules as the key: a missing attribute cannot match, a value
      // that is not an ordinary number is left to the programs.
      const Value* value = pub.get(r.attr2);
      double v2 = 0.0;
      if (value == nullptr || (ordinary_number(*value, v2) && !(r.lo2 <= v2 && v2 <= r.hi2))) {
        continue;
      }
    }
    out.push_back(r.slot);
  }
}

void EnvelopeIndex::append_list(const std::vector<Record>& records,
                                std::vector<std::uint32_t>& out) const {
  visited_ += records.size();
  for (const Record& r : records) out.push_back(r.slot);
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
      for (std::uint32_t b = 0; b < key.buckets; ++b) append_list(key.lists[b], out);
      append_list(key.wide, out);
      append_list(key.dormant, out);
      continue;
    }
    const std::uint32_t top = bucket(key, v);
    for (std::uint32_t b = top > kSpan ? top - kSpan : 0; b <= top; ++b) {
      scan_list(key.lists[b], v, pub, out);
    }
    scan_list(key.wide, v, pub, out);
  }
}

}  // namespace evps
