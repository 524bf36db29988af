#ifndef RAIN_ML_DATASET_H_
#define RAIN_ML_DATASET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace rain {

/// \brief A labeled training or querying set with deletion support.
///
/// Rows are never physically removed: the Rain debugger "deletes" training
/// records by deactivating them, which keeps row ids stable across
/// train-rank-fix iterations (deleted ids are exactly the debugger output).
///
/// ## Copy-on-write storage
///
/// The feature matrix and labels live in a shared immutable storage block;
/// the active mask is per-instance. Copying a Dataset therefore shares the
/// (potentially large) feature storage and only duplicates the mask — a
/// copy IS a deletion view. This is what lets the serve layer host many
/// concurrent debug sessions over one registered dataset without
/// per-session dataset copies: each session gets a `View()` whose
/// deactivations are invisible to every other view.
///
/// The single mutating accessor, `set_label`, detaches (deep-copies) the
/// storage first when it is shared, so corruption injectors keep their
/// value semantics. Detach is not thread-safe against concurrent readers
/// of the *same instance*; mutate before sharing (all in-tree injectors
/// run at setup time, before any view is taken).
class Dataset {
 public:
  Dataset();
  /// Takes ownership of the feature matrix (n x d) and labels (n values in
  /// [0, num_classes)).
  Dataset(Matrix features, std::vector<int> labels, int num_classes);

  /// Copies share feature/label storage (copy-on-write) and duplicate the
  /// active mask; see class comment.
  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// A fresh all-active deletion view sharing this dataset's storage.
  /// O(n) in the mask, O(1) in the features.
  Dataset View() const;

  /// True when `other` shares this dataset's feature/label storage (no
  /// copy happened between them). Test / admission-control introspection.
  bool SharesStorageWith(const Dataset& other) const {
    return storage_ == other.storage_;
  }

  size_t size() const { return storage_->labels.size(); }
  size_t num_features() const { return storage_->features.cols(); }
  int num_classes() const { return storage_->num_classes; }

  const Matrix& features() const { return storage_->features; }
  const double* row(size_t i) const { return storage_->features.Row(i); }

  int label(size_t i) const { return storage_->labels[i]; }
  /// Overwrites a label (used by corruption injectors). Detaches shared
  /// storage first, so other views never observe the write.
  void set_label(size_t i, int y);
  const std::vector<int>& labels() const { return storage_->labels; }

  bool active(size_t i) const { return active_[i] != 0; }
  /// Marks record i as deleted; idempotent.
  void Deactivate(size_t i);
  /// Undoes a single Deactivate (a reactivate-row update delta);
  /// idempotent.
  void Reactivate(size_t i);
  /// Re-activates every record (fresh debugging run).
  void ReactivateAll();
  size_t num_active() const { return num_active_; }
  /// Indices of currently active records, ascending.
  std::vector<size_t> ActiveIndices() const;

 private:
  /// The shared immutable half: features, labels, class count.
  struct Storage {
    Matrix features;
    std::vector<int> labels;
    int num_classes = 0;
  };

  /// Deep-copies the storage when it is shared with other instances.
  void DetachStorage();

  std::shared_ptr<const Storage> storage_;
  std::vector<uint8_t> active_;
  size_t num_active_ = 0;
};

}  // namespace rain

#endif  // RAIN_ML_DATASET_H_
