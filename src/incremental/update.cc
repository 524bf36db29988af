#include "incremental/update.h"

#include <algorithm>

namespace rain {

namespace {

void CollectTouched(const UpdateBatch& batch, std::vector<size_t>* rows) {
  rows->reserve(batch.label_edits.size() + batch.deactivate_rows.size() +
                batch.reactivate_rows.size());
  for (const LabelEdit& e : batch.label_edits) rows->push_back(e.row);
  rows->insert(rows->end(), batch.deactivate_rows.begin(),
               batch.deactivate_rows.end());
  rows->insert(rows->end(), batch.reactivate_rows.begin(),
               batch.reactivate_rows.end());
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

}  // namespace

std::vector<size_t> UpdateBatch::TouchedRows() const {
  std::vector<size_t> rows;
  CollectTouched(*this, &rows);
  return rows;
}

size_t DeltaLog::total_touched() const {
  size_t total = 0;
  for (const DeltaLogEntry& e : entries_) total += e.touched_rows;
  return total;
}

}  // namespace rain
