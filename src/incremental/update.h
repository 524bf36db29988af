#ifndef RAIN_INCREMENTAL_UPDATE_H_
#define RAIN_INCREMENTAL_UPDATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/debugger.h"

namespace rain {

/// One training-set label correction: row `row` becomes class `new_label`.
struct LabelEdit {
  size_t row = 0;
  int new_label = 0;
};

/// \brief A batch of first-class deltas against a debugging session.
///
/// The four delta families mirror the ways a session's inputs can change
/// between turns:
///
///  - **Label edits** rewrite training labels in place (COW `Dataset`
///    storage detaches on first write, so sibling tenants sharing the
///    storage are unaffected).
///  - **Row deletes / inserts** are expressed as `deactivate_rows` /
///    `reactivate_rows` against the fixed-capacity COW storage: a
///    "deleted" base row is tombstoned out of the active mask, and an
///    "insert" restores a previously tombstoned row. (True capacity
///    growth would reallocate the shared storage under live `View()`s;
///    the serve layer's datasets are admitted at fixed capacity, so
///    inserts are modeled as reactivation of pre-staged rows.)
///  - **Workload mutations** add whole query/complaint entries
///    (`add_queries`) or retract existing ones by index
///    (`remove_queries`, indices into the session's current workload).
///
/// An `UpdateBatch` is applied atomically by
/// `DebugSession::ApplyUpdate`; the session then chooses (per
/// `UpdateOptions`) between the O(delta) incremental path and a full
/// recompute.
struct UpdateBatch {
  std::vector<LabelEdit> label_edits;
  std::vector<size_t> deactivate_rows;
  std::vector<size_t> reactivate_rows;
  std::vector<QueryComplaints> add_queries;
  std::vector<size_t> remove_queries;

  bool empty() const {
    return label_edits.empty() && deactivate_rows.empty() &&
           reactivate_rows.empty() && add_queries.empty() &&
           remove_queries.empty();
  }

  /// The distinct training rows touched by the data half of the batch
  /// (label edits + activation flips), sorted ascending, duplicates
  /// removed.
  std::vector<size_t> TouchedRows() const;

  /// Number of distinct training rows touched by the data half of the
  /// batch (label edits + activation flips; duplicates counted once).
  size_t touched_rows() const { return TouchedRows().size(); }

  /// True if the batch changes the training data (as opposed to only the
  /// workload).
  bool touches_data() const {
    return !label_edits.empty() || !deactivate_rows.empty() ||
           !reactivate_rows.empty();
  }

  /// True if the batch changes the workload.
  bool touches_workload() const {
    return !add_queries.empty() || !remove_queries.empty();
  }
};

/// Which maintenance path `ApplyUpdate` takes.
enum class UpdatePolicy : uint8_t {
  /// Incremental when the touched-row fraction is below
  /// `UpdateOptions::incremental_threshold`, full otherwise.
  kAuto,
  /// Always the O(delta) path: keep the provenance arena, bind cache and
  /// warm model parameters; rebind only delta-affected workload entries.
  kIncremental,
  /// Always the from-scratch path: drop every cache, reset the arena,
  /// restore the initial model parameters (cold retrain).
  kFull,
};

struct UpdateOptions {
  UpdatePolicy policy = UpdatePolicy::kAuto;
  /// kAuto switches to the full path when the batch touches more than
  /// this fraction of the training set. 256 rows on Adult-scale data sit
  /// comfortably below the default.
  double incremental_threshold = 0.25;
};

/// What `ApplyUpdate` did. `incremental == false` means the full
/// recompute path ran (caches dropped, cold model restored).
struct UpdateReport {
  bool incremental = false;
  size_t touched_rows = 0;
  /// Workload entries whose bindings were invalidated by this batch (they
  /// re-execute + re-bind on the next turn); the rest splice straight out
  /// of the bind cache.
  size_t entries_invalidated = 0;
  size_t entries_cached = 0;
  /// Bound complaints retracted by `remove_queries` (their arena nodes
  /// are tombstoned in place, never recompacted).
  size_t tombstoned_complaints = 0;
  /// True when the batch reopened a session that had finished kResolved.
  bool reopened = false;
  double seconds = 0.0;
  std::string note;
};

/// One applied batch, as remembered by the session's `DeltaLog`.
struct DeltaLogEntry {
  UpdateBatch batch;
  bool incremental = false;
  size_t touched_rows = 0;
  double seconds = 0.0;
};

/// \brief Append-only journal of every delta applied to a session.
///
/// `AddComplaints` / `RemoveQuery` / `ApplyUpdate` all record here, so
/// the full update history of a session is replayable: a from-scratch
/// session given the same initial state and the same log converges to
/// the same deletion sequence (the incremental-vs-full equivalence
/// tests in tests/incremental_test.cc are built on exactly this replay).
class DeltaLog {
 public:
  void Append(DeltaLogEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<DeltaLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// Sum of touched_rows across the log.
  size_t total_touched() const;

 private:
  std::vector<DeltaLogEntry> entries_;
};

}  // namespace rain

#endif  // RAIN_INCREMENTAL_UPDATE_H_
