#include "matching/counting_matcher.hpp"

#include <algorithm>
#include <cmath>

#include "matching/brute_force_matcher.hpp"

namespace evps {

namespace {

/// Identity (not equivalence) match for static predicates, safe under NaN:
/// Predicate::operator== compares constants through Value::compare, which
/// makes a NaN-constant predicate unequal to ITSELF — the historical reason
/// stale NaN entries could not be unindexed. Numeric operands compare as
/// doubles with NaN==NaN allowed; -0.0 == 0.0 is deliberate (such operand
/// pairs are deduplicated as equal predicates and never coexist per slot).
bool same_static_predicate(const Predicate& a, const Predicate& b) noexcept {
  if (a.op() != b.op() || a.attr_id() != b.attr_id()) return false;
  const Value& ca = a.constant();
  const Value& cb = b.constant();
  if (ca.is_string() != cb.is_string()) return false;
  if (ca.is_string()) return ca.as_string() == cb.as_string();
  const double na = *ca.numeric();
  const double nb = *cb.numeric();
  return na == nb || (std::isnan(na) && std::isnan(nb));
}

}  // namespace

CountingMatcher::SubSlot CountingMatcher::claim_slot(SubscriptionId id,
                                                     const std::vector<Predicate>& preds) {
  require_static(preds);
  if (slot_of_.contains(id)) throw std::invalid_argument("duplicate subscription id " + id.str());

  // Deduplicate identical predicates: conjunctively redundant, and indexing
  // copies would leave stale entries on remove (each index list stores one
  // occurrence per unique (attr, op, operand) triple per subscription).
  std::vector<Predicate> unique;
  unique.reserve(preds.size());
  for (const auto& p : preds) {
    if (std::find(unique.begin(), unique.end(), p) == unique.end()) unique.push_back(p);
  }

  SubSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<SubSlot>(slots_.size());
    slots_.emplace_back();
    stamp_.push_back(0);
    counts_.push_back(0);
  }
  slot_of_.emplace(id, slot);
  slots_[slot].id = id;
  slots_[slot].preds = std::move(unique);
  predicate_count_ += slots_[slot].preds.size();
  return slot;
}

void CountingMatcher::add(SubscriptionId id, const std::vector<Predicate>& preds) {
  const SubSlot slot = claim_slot(id, preds);
  for (const auto& p : slots_[slot].preds) index_predicate(slot, p, nullptr);
}

void CountingMatcher::add_batch(std::vector<MatcherBatchEntry> batch) {
  // Stage every ordered numeric bound, index everything else point-wise
  // (those structures are O(1) per entry anyway), then merge each touched
  // (attr, op) bound list once.
  std::vector<StagedBound> staged;
  for (const auto& entry : batch) {
    const SubSlot slot = claim_slot(entry.id, entry.preds);
    for (const auto& p : slots_[slot].preds) index_predicate(slot, p, &staged);
  }
  if (staged.empty()) return;
  std::sort(staged.begin(), staged.end(), [](const StagedBound& a, const StagedBound& b) {
    if (a.attr != b.attr) return a.attr < b.attr;
    return a.op < b.op;
  });
  std::vector<PagedBoundIndex::Entry> run;
  for (std::size_t i = 0; i < staged.size();) {
    std::size_t j = i;
    run.clear();
    while (j < staged.size() && staged[j].attr == staged[i].attr &&
           staged[j].op == staged[i].op) {
      run.push_back(PagedBoundIndex::Entry{staged[j].bound, staged[j].slot});
      ++j;
    }
    bound_list(index_[staged[i].attr], staged[i].op).insert_batch(std::move(run));
    i = j;
  }
}

bool CountingMatcher::remove(SubscriptionId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const SubSlot slot = it->second;
  auto& state = slots_[slot];
  for (const auto& p : state.preds) unindex_predicate(slot, p);
  predicate_count_ -= state.preds.size();
  state.id = SubscriptionId::invalid();
  state.preds.clear();
  state.preds.shrink_to_fit();
  free_slots_.push_back(slot);
  slot_of_.erase(it);
  return true;
}

PagedBoundIndex& CountingMatcher::bound_list(AttributeIndex& idx, RelOp op) noexcept {
  switch (op) {
    case RelOp::kLt: return idx.lt;
    case RelOp::kLe: return idx.le;
    case RelOp::kGt: return idx.gt;
    default: return idx.ge;  // kGe; kEq/kNe never reach the bound lists
  }
}

void CountingMatcher::index_predicate(SubSlot slot, const Predicate& p,
                                      std::vector<StagedBound>* staged) {
  const AttrId attr = AttributeTable::instance().intern(p.attribute());
  if (attr >= index_.size()) index_.resize(attr + 1);
  auto& idx = index_[attr];
  const Value& c = p.constant();
  if (p.op() == RelOp::kNe) {
    if (c.is_string()) {
      idx.ne_str.emplace_back(c.as_string(), slot);
    } else {
      // NaN operands included: `pub != NaN` is true for every pub, which is
      // exactly the content-based semantics (incomparable => kNe holds).
      idx.ne_bounds.push_back(*c.numeric());
      idx.ne_slots.push_back(slot);
    }
    return;
  }
  if (c.is_string()) {
    if (p.op() == RelOp::kEq) {
      idx.eq_str[c.as_string()].push_back(slot);
    } else {
      idx.misc.emplace_back(p, slot);  // ordered string comparison: scan
    }
    return;
  }
  const double bound = *c.numeric();
  if (std::isnan(bound)) {
    // Quarantine: NaN breaks both the hash-equality keying of eq_num
    // (find(NaN) never succeeds, so removes leak) and the strict weak
    // ordering of a sorted structure. A NaN-constant ordered/equality
    // predicate can never be satisfied; the misc scan evaluates it to false.
    idx.misc.emplace_back(p, slot);
    return;
  }
  if (p.op() == RelOp::kEq) {
    idx.eq_num[bound].push_back(slot);
    return;
  }
  if (staged != nullptr) {
    staged->push_back(StagedBound{attr, p.op(), bound, slot});
  } else {
    bound_list(idx, p.op()).insert(bound, slot);
  }
}

void CountingMatcher::unindex_predicate(SubSlot slot, const Predicate& p) {
  AttributeIndex* idx_ptr = find_index(AttributeTable::instance().find(p.attribute()));
  if (idx_ptr == nullptr) return;
  auto& idx = *idx_ptr;
  const Value& c = p.constant();

  auto erase_from_map = [&](auto& map, const auto& key) {
    const auto it = map.find(key);
    if (it == map.end()) return;
    auto& v = it->second;
    const auto pos = std::find(v.begin(), v.end(), slot);
    if (pos != v.end()) v.erase(pos);
    if (v.empty()) map.erase(it);
  };

  if (p.op() == RelOp::kNe) {
    if (c.is_string()) {
      const auto pos =
          std::find_if(idx.ne_str.begin(), idx.ne_str.end(), [&](const auto& e) {
            return e.second == slot && e.first == c.as_string();
          });
      if (pos != idx.ne_str.end()) idx.ne_str.erase(pos);
    } else {
      // NaN-safe (bit-class) match, mirroring same_static_predicate.
      const double bound = *c.numeric();
      for (std::size_t i = 0; i < idx.ne_bounds.size(); ++i) {
        const double b = idx.ne_bounds[i];
        if (idx.ne_slots[i] == slot &&
            (b == bound || (std::isnan(b) && std::isnan(bound)))) {
          idx.ne_bounds.erase(idx.ne_bounds.begin() + static_cast<std::ptrdiff_t>(i));
          idx.ne_slots.erase(idx.ne_slots.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    return;
  }
  if (c.is_string()) {
    if (p.op() == RelOp::kEq) {
      erase_from_map(idx.eq_str, c.as_string());
    } else {
      const auto pos = std::find_if(idx.misc.begin(), idx.misc.end(), [&](const auto& e) {
        return e.second == slot && same_static_predicate(e.first, p);
      });
      if (pos != idx.misc.end()) idx.misc.erase(pos);
    }
    return;
  }
  const double bound = *c.numeric();
  if (std::isnan(bound)) {
    const auto pos = std::find_if(idx.misc.begin(), idx.misc.end(), [&](const auto& e) {
      return e.second == slot && same_static_predicate(e.first, p);
    });
    if (pos != idx.misc.end()) idx.misc.erase(pos);
    return;
  }
  if (p.op() == RelOp::kEq) {
    erase_from_map(idx.eq_num, bound);
    return;
  }
  bound_list(idx, p.op()).erase(bound, slot);
}

std::size_t CountingMatcher::indexed_entry_count() const noexcept {
  std::size_t n = 0;
  for (const auto& idx : index_) {
    n += idx.lt.size() + idx.le.size() + idx.gt.size() + idx.ge.size();
    for (const auto& [key, slots] : idx.eq_num) n += slots.size();
    for (const auto& [key, slots] : idx.eq_str) n += slots.size();
    n += idx.ne_bounds.size() + idx.ne_str.size() + idx.misc.size();
  }
  return n;
}

void CountingMatcher::match(const Publication& pub, std::vector<SubscriptionId>& out) const {
  if (slot_of_.empty() || pub.empty()) return;

  // Open a new counting epoch; stale counters from previous matches are
  // invalidated by their stamp, never cleared. On the (rare) epoch wrap every
  // stamp is reset so no old stamp can alias the new epoch.
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  touched_.clear();

  const std::uint32_t epoch = epoch_;
  auto* const stamp = stamp_.data();
  auto* const counts = counts_.data();
  const auto hit = [&](SubSlot slot) {
    if (stamp[slot] != epoch) {
      stamp[slot] = epoch;
      counts[slot] = 1;
      touched_.push_back(slot);
    } else {
      ++counts[slot];
    }
  };

  const auto& ids = pub.attribute_ids();
  const auto& attrs = pub.attributes();
  for (std::size_t a = 0; a < ids.size(); ++a) {
    if (ids[a] >= index_.size()) continue;
    const auto& idx = index_[ids[a]];
    const Value& value = attrs[a].second;

    if (const auto num = value.numeric()) {
      const double v = *num;
      if (!std::isnan(v)) {
        idx.lt.visit_above(v, /*inclusive=*/false, hit);  // pub <  bound: bounds > v
        idx.le.visit_above(v, /*inclusive=*/true, hit);   // pub <= bound: bounds >= v
        idx.gt.visit_below(v, /*inclusive=*/false, hit);  // pub >  bound: bounds < v
        idx.ge.visit_below(v, /*inclusive=*/true, hit);   // pub >= bound: bounds <= v
        if (const auto eq = idx.eq_num.find(v); eq != idx.eq_num.end()) {
          for (const auto slot : eq->second) hit(slot);
        }
      }
      // else: a NaN publication value is incomparable — it satisfies no
      // ordered or equality predicate, only the kNe scans below.

      // Numeric != sweep (SoA, vectorisable). IEEE `v != b` is the exact
      // kNe semantics: true when the values differ AND when either is NaN
      // (incomparable values satisfy only kNe).
      const double* const ne_bounds = idx.ne_bounds.data();
      const SubSlot* const ne_slots = idx.ne_slots.data();
      const std::size_t ne_n = idx.ne_bounds.size();
      for (std::size_t i = 0; i < ne_n; ++i) {
        if (v != ne_bounds[i]) hit(ne_slots[i]);
      }
      // String != operands: incomparable with any numeric value => satisfied.
      for (const auto& [operand, slot] : idx.ne_str) hit(slot);
    } else {
      if (const auto eq = idx.eq_str.find(value.as_string()); eq != idx.eq_str.end()) {
        for (const auto slot : eq->second) hit(slot);
      }
      // Numeric != operands: incomparable with any string value => satisfied.
      for (const auto slot : idx.ne_slots) hit(slot);
      for (const auto& [operand, slot] : idx.ne_str) {
        if (value.as_string() != operand) hit(slot);
      }
    }
    for (const auto& [pred, slot] : idx.misc) {
      if (pred.matches(value)) hit(slot);
    }
  }

  const std::size_t first_new = out.size();
  for (const auto slot : touched_) {
    const auto& state = slots_[slot];
    if (counts[slot] == state.preds.size()) out.push_back(state.id);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first_new), out.end());
}

MatcherPtr make_matcher(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kBruteForce: return std::make_unique<BruteForceMatcher>();
    case MatcherKind::kCounting: return std::make_unique<CountingMatcher>();
  }
  throw std::invalid_argument("unknown matcher kind");
}

}  // namespace evps
