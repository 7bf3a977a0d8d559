// The standard (non-evolving) matching engine interface.
//
// Matchers store *static* predicates only. Evolving predicates never enter a
// matcher directly: VES inserts materialised versions, LEES/CLEES keep them
// in their own structures (Section V). Attempting to add an evolving
// predicate throws.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/ids.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"

namespace evps {

/// One subscription of an add_batch() call. Owned by value so sharded
/// matchers can redistribute entries across shards without copying the
/// predicate vectors.
struct MatcherBatchEntry {
  SubscriptionId id;
  std::vector<Predicate> preds;
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Install `preds` (conjunctive) under `id`. `id` must not already be
  /// present; predicates must all be static.
  virtual void add(SubscriptionId id, const std::vector<Predicate>& preds) = 0;

  /// Install a batch of subscriptions, exactly as if add() had been called
  /// per entry in order (the default does just that; a partial failure
  /// leaves the earlier entries installed). Implementations override this to
  /// amortise index maintenance — CountingMatcher turns the batch into one
  /// sorted bulk merge per touched (attribute, operator) bound list, the
  /// path VES uses for bulk version re-materialisation.
  virtual void add_batch(std::vector<MatcherBatchEntry> batch) {
    for (auto& entry : batch) add(entry.id, entry.preds);
  }

  /// Remove the subscription; returns false if unknown.
  virtual bool remove(SubscriptionId id) = 0;

  /// Append all matching subscription ids to `out` in ascending id order.
  virtual void match(const Publication& pub, std::vector<SubscriptionId>& out) const = 0;

  /// Match a batch of publications: out[i] receives the ascending-id hits of
  /// *pubs[i], exactly as if match(*pubs[i], out[i]) had been called in a
  /// loop (the default does just that). ShardedMatcher overrides this to
  /// amortise one pool dispatch over the whole batch. The batch is a span of
  /// pointers so brokers can assemble it from shared (refcounted)
  /// publications without copying events into a contiguous staging vector.
  /// `out` is grown to pubs.size() if needed (never shrunk, so inner vectors
  /// keep their capacity) and each used entry is cleared first.
  virtual void match_batch(std::span<const Publication* const> pubs,
                           std::vector<std::vector<SubscriptionId>>& out) const {
    if (out.size() < pubs.size()) out.resize(pubs.size());
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      out[i].clear();
      match(*pubs[i], out[i]);
    }
  }

  /// Convenience overload for contiguous publications (tests, benches):
  /// builds the pointer span and delegates to the virtual batch entry point.
  void match_batch(std::span<const Publication> pubs,
                   std::vector<std::vector<SubscriptionId>>& out) const {
    std::vector<const Publication*> ptrs;
    ptrs.reserve(pubs.size());
    for (const auto& pub : pubs) ptrs.push_back(&pub);
    match_batch(std::span<const Publication* const>(ptrs), out);
  }

  [[nodiscard]] virtual bool contains(SubscriptionId id) const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Append every installed subscription id to `out`, in no particular
  /// order. Snapshot/audit support (analysis/audit): lets the auditor check
  /// the matcher's physical footprint against the engine's logical table.
  virtual void collect_ids(std::vector<SubscriptionId>& out) const = 0;

  /// Convenience wrapper.
  [[nodiscard]] std::vector<SubscriptionId> match(const Publication& pub) const {
    std::vector<SubscriptionId> out;
    match(pub, out);
    return out;
  }

 protected:
  static void require_static(const std::vector<Predicate>& preds) {
    for (const auto& p : preds) {
      if (p.is_evolving()) {
        throw std::invalid_argument(
            "matcher only stores static predicates; materialise evolving ones first");
      }
    }
  }
};

using MatcherPtr = std::unique_ptr<Matcher>;

/// Matcher implementations selectable by configuration:
///   * kBruteForce — linear-scan oracle (tests, baselines)
///   * kCounting   — paged per-attribute interval indexes: fast match,
///                   O(log n) insert/remove, bulk add_batch (the default)
enum class MatcherKind { kBruteForce, kCounting };

[[nodiscard]] MatcherPtr make_matcher(MatcherKind kind);

}  // namespace evps
