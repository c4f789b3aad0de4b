#include "data/tensor_builder.h"

#include <algorithm>

namespace tcss {

Result<SparseTensor> BuildCheckinTensor(const Dataset& data,
                                        const std::vector<CheckInEvent>& events,
                                        TimeGranularity granularity) {
  SparseTensor t(data.num_users(), data.num_pois(), NumBins(granularity));
  t.Reserve(events.size());
  for (const auto& e : events) {
    TCSS_RETURN_IF_ERROR(t.Add(e.user, e.poi, TimeBin(e.timestamp, granularity)));
  }
  TCSS_RETURN_IF_ERROR(t.Finalize(/*binary=*/true));
  return t;
}

Result<SparseTensor> BuildCheckinTensor(const Dataset& data,
                                        TimeGranularity granularity) {
  return BuildCheckinTensor(data, data.checkins(), granularity);
}

std::vector<TensorCell> EventsToCells(const std::vector<CheckInEvent>& events,
                                      TimeGranularity granularity) {
  std::vector<TensorCell> cells;
  cells.reserve(events.size());
  for (const auto& e : events) {
    cells.push_back({e.user, e.poi, TimeBin(e.timestamp, granularity)});
  }
  std::sort(cells.begin(), cells.end(),
            [](const TensorCell& a, const TensorCell& b) {
              if (a.i != b.i) return a.i < b.i;
              if (a.j != b.j) return a.j < b.j;
              return a.k < b.k;
            });
  cells.erase(std::unique(cells.begin(), cells.end(),
                          [](const TensorCell& a, const TensorCell& b) {
                            return a.i == b.i && a.j == b.j && a.k == b.k;
                          }),
              cells.end());
  return cells;
}

}  // namespace tcss
