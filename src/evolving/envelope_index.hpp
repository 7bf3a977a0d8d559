// Window-envelope index for lazily evaluated evolving parts (LEES).
//
// LEES (paper §IV-B/V-B) runs every evolving part's programs on every
// publication. For parts whose programs read only the elapsed time `t` and
// constants, the set of publication values a part can accept over a short
// stretch of simulated time is boundable in advance: give the part a window
// [a, a+W] of simulated time and bound every predicate's operand over the
// window's elapsed-time range (see below). Intersecting the allowed ranges of
// the part's non-`!=` predicates on one attribute yields a closed range no
// matching publication can fall outside while the window lasts. The index
// keeps each part under its narrowest such range (its *key* attribute) and
// answers, per publication, "which parts' ranges contain this value" — the
// candidates.
// Candidates are then evaluated exactly by the unchanged compiled programs:
// the index only decides what need not be evaluated (index what can be
// bounded, verify exactly — the matching half of arXiv:1811.07088).
//
// Windows are re-anchored on the match path (advance): a part whose window
// ended before `now` moves forward by whole windows, so the first window's
// id-hash stagger keeps re-anchoring spread evenly over publications. No
// timers are scheduled. A program that is a monotone chain in `t` (one `t`
// load reached only through neg, floor, ceil, and +, -, *, / by finite
// non-zero constants; see monotone_chain) is bounded by two exact
// evaluations at the window's ends; other programs by the interval domain
// (analysis/interval.hpp, outward-rounded). Anchoring still costs several
// evaluations, so the owner suspend()s the index while publications are too
// sparse for that to pay and evaluates the parts directly. See DESIGN.md §18
// for the soundness argument and the break-even.
//
// Per attribute, ranges live in a uniform bucket grid over the axis with
// clamped end buckets. A range is *narrow* when its endpoints' buckets are at
// most kSpan apart and is then listed in the bucket of its low end; a stab
// at value v scans buckets [b(v) - kSpan, b(v)], which contain every narrow
// range holding v because b is monotone. Other ranges sit on a per-key wide
// list that every stab scans; ranges that are empty (the part cannot match
// during this window) sit on a dormant list that only fail-closed stabs
// visit. Each listed range also carries the part's range on the
// second-narrowest attribute, which filters the key's hits before they
// become candidates. The grid is re-tuned from the ranges themselves when the
// key's population doubles (at once while a bulk of parts is first
// anchored) or too many ranges drift outside it or go wide. Lists are contiguous arrays of stab records (both ranges rounded
// outwards to float, and the slot); removal swaps the last record in, and
// each part keeps its record's position. An array grows by a quarter, and
// only past its largest size since the last re-tune, which gives back the
// room of arrays holding under half of it: steady-state re-anchoring and
// stabbing allocate nothing.
//
// Single-threaded: one index per LEES shard, touched only by that shard's
// worker.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "analysis/interval.hpp"
#include "common/attribute_table.hpp"
#include "common/sim_time.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"

namespace evps {

class EnvelopeIndex {
 public:
  /// A part is indexable when its window is positive, every program reads
  /// only `t` and constants, and at least one predicate is not `!=`.
  [[nodiscard]] static bool indexable(std::span<const CompiledPredicate> preds,
                                      Duration window);

  /// True when `prog` is a monotone chain in `t`: exactly one `t` load,
  /// reached through a single path of neg, floor, ceil, + or - with a finite
  /// constant, and * or / by a finite non-zero constant, where constants are
  /// built from pushed constants and + - * / neg only. Every value such a
  /// program computes for a `t` between two instants then lies between its
  /// values at those instants, and none is NaN.
  [[nodiscard]] static bool monotone_chain(const ExprProgram& prog);

  /// Register the part stored in caller slot `slot`. `preds` must stay valid
  /// (same address) until remove(slot). The part is anchored by the next
  /// advance(); `stagger` (an id hash) places its first window.
  void add(std::uint32_t slot, std::span<const CompiledPredicate> preds, SimTime epoch,
           Duration window, std::uint64_t stagger);
  void remove(std::uint32_t slot);

  /// Anchor new parts and re-anchor every part whose window does not
  /// contain `now`, then re-tune any key grid that has degraded.
  void advance(SimTime now);

  /// Drop every window (lists and due times) while the caller evaluates the
  /// parts another way; the next advance() anchors every part afresh, on
  /// its own window grid. Keeps the index's memory bounded under churn
  /// while advance() is not called.
  void suspend();

  /// Mean number of publications one window sees when publications arrive
  /// `gap_us` apart: registered parts over the windows that end per gap
  /// (+inf for a zero gap or no parts).
  [[nodiscard]] double publications_per_window(double gap_us) const noexcept {
    const double ends = gap_us * windows_per_us_;
    return ends > 0.0 ? static_cast<double>(parts_) / ends
                      : std::numeric_limits<double>::infinity();
  }

  /// Append to `out` the slot of every part that may match `pub` during its
  /// current window. Parts keyed on an attribute whose publication value is
  /// not an ordinary number (string, NaN, an integer a double cannot hold
  /// exactly) are all appended; parts keyed on a missing attribute cannot
  /// match and are skipped. Requires advance() for the current instant.
  void stab(const Publication& pub, std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::span<const CompiledPredicate> predicates(std::uint32_t slot) const noexcept {
    const Entry& e = entries_[slot];
    return {e.preds, e.npreds};
  }
  [[nodiscard]] SimTime epoch(std::uint32_t slot) const noexcept { return entries_[slot].epoch; }

  /// Window anchorings performed (first anchors included).
  [[nodiscard]] std::uint64_t anchorings() const noexcept { return anchorings_; }
  /// Stab records read by stab(), candidates included.
  [[nodiscard]] std::uint64_t visited() const noexcept { return visited_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;
  static constexpr std::uint32_t kWide = 0xfffffffeU;
  static constexpr std::uint32_t kDormant = 0xfffffffdU;
  /// Bucket distance a narrow range may span; a stab scans kSpan + 1 buckets.
  static constexpr std::uint32_t kSpan = 4;
  /// Windows longer than a day are cut to a day: envelopes only get tighter,
  /// and window arithmetic stays far from int64 overflow.
  static constexpr std::int64_t kMaxWindowUs = 86'400'000'000;
  /// Predicates that can be anchored as chains (Entry::chains bits).
  static constexpr std::size_t kMaxChains = 32;

  /// What a stab reads of one listed part, contiguous per list. Ranges are
  /// rounded outwards to float: they only filter, the programs decide.
  struct Record {
    float lo;   // allowed key-attribute range for this window
    float hi;
    float lo2;  // allowed range on the second-narrowest attribute
    float hi2;
    AttrId attr2;  // no second filter when invalid
    std::uint32_t slot;
  };

  struct Entry {
    std::uint32_t list = kNil;  // bucket index, kWide or kDormant
    std::uint32_t key = kNil;   // keys_ index; kNil while unlisted
    std::uint32_t pos = 0;      // its record's index in that list
    std::uint32_t stamp = 0;    // bumped per anchoring and removal (heap staleness)
    const CompiledPredicate* preds = nullptr;  // null: slot not registered
    std::uint32_t npreds = 0;
    std::uint32_t chains = 0;   // bit i: predicate i is a monotone chain
    SimTime epoch{};
    std::int64_t window_us = 0;
    /// Window start a (the window is [a, a + W]); before the first anchoring,
    /// minus the stagger, so every anchoring aligns to a + kW.
    std::int64_t anchor_us = 0;
  };

  struct Key {
    AttrId attr = kInvalidAttrId;
    double origin = 0.0;
    double inv_width = 0.0;  // 0: untuned, everything in bucket 0
    double top = 0.0;        // grid extent [origin, top] at the last tune
    /// The first `buckets` lists are the grid; the rest are empty.
    std::vector<std::vector<Record>> lists{1};
    std::uint32_t buckets = 1;
    std::vector<Record> wide;
    std::vector<Record> dormant;
    std::size_t count = 0;
    std::size_t tuned_count = 0;
    std::size_t tuned_wide = 0;
    std::size_t drift = 0;  // narrow inserts outside [origin, top] since the tune
  };

  struct Due {
    std::int64_t end_us;
    std::uint32_t slot;
    std::uint32_t stamp;
  };
  struct DueLater {
    bool operator()(const Due& a, const Due& b) const noexcept { return a.end_us > b.end_us; }
  };

  /// The per-attribute allowed range while anchoring one part.
  struct AttrRange {
    AttrId attr;
    double lo;
    double hi;
  };

  /// Anchor `slot` on the window of its grid (anchor_us + kW) holding `now_us`.
  void anchor(std::uint32_t slot, std::int64_t now_us);
  /// The list `record` belongs on under `key`'s grid.
  [[nodiscard]] static std::uint32_t list_for(const Key& key, const Record& record) noexcept;
  void place(const Record& record, std::uint32_t key);
  void unlink(std::uint32_t slot);
  [[nodiscard]] static bool degraded(const Key& key) noexcept;
  void retune(std::uint32_t key_index);
  [[nodiscard]] std::uint32_t key_for(AttrId attr);
  [[nodiscard]] static std::uint32_t bucket(const Key& key, double x) noexcept;
  [[nodiscard]] static std::vector<Record>& list(Key& key, std::uint32_t list) noexcept;
  /// Room for `size` records and a quarter more: lists grow by a quarter,
  /// not twice, which bounds their slack.
  static void reserve(std::vector<Record>& records, std::size_t size);
  /// Reallocate a list holding under half its capacity to fit.
  static void fit(std::vector<Record>& records);
  void scan_list(const std::vector<Record>& records, double v, const Publication& pub,
                 std::vector<std::uint32_t>& out) const;
  void append_list(const std::vector<Record>& records, std::vector<std::uint32_t>& out) const;
  /// Empty every list, keeping its capacity; every part becomes unlisted.
  void unlist_all();

  std::vector<Entry> entries_;  // by caller slot
  std::vector<Key> keys_;
  std::vector<std::uint32_t> pending_;  // registered, not yet anchored
  std::vector<Due> due_;                // min-heap of window ends
  std::int64_t last_now_us_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t anchorings_ = 0;
  mutable std::uint64_t visited_ = 0;
  std::size_t parts_ = 0;         // registered
  double windows_per_us_ = 0.0;   // sum of 1 / window over registered parts
  bool suspended_ = false;
  // Anchoring scratch (grown once, then reused).
  std::vector<double> stack_;
  std::vector<Interval> iv_stack_;
  std::vector<AttrRange> ranges_;
  std::vector<double> widths_;
};

}  // namespace evps
