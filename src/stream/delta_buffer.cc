#include "stream/delta_buffer.h"

#include <algorithm>

#include "common/strings.h"
#include "data/csv_io.h"

namespace tcss {

DeltaBuffer::DeltaBuffer(size_t num_users, size_t num_pois)
    : num_users_(num_users), num_pois_(num_pois) {}

Result<uint64_t> DeltaBuffer::Append(uint32_t user, uint32_t poi,
                                     int64_t timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (user >= num_users_) {
    return Status::OutOfRange(
        StrFormat("ingest user %u >= %zu", user, num_users_));
  }
  if (poi >= num_pois_) {
    return Status::OutOfRange(
        StrFormat("ingest poi %u >= %zu", poi, num_pois_));
  }
  if (timestamp < kMinCheckinTimestamp || timestamp > kMaxCheckinTimestamp) {
    return Status::OutOfRange("ingest timestamp outside calendar range");
  }
  events_.push_back({user, poi, timestamp});
  return ++accepted_;
}

std::vector<CheckInEvent> DeltaBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t DeltaBuffer::DropBin(uint32_t bin, TimeGranularity g) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t before = events_.size();
  events_.erase(std::remove_if(events_.begin(), events_.end(),
                               [&](const CheckInEvent& e) {
                                 return TimeBin(e.timestamp, g) == bin;
                               }),
                events_.end());
  return before - events_.size();
}

size_t DeltaBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t DeltaBuffer::accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_;
}

}  // namespace tcss
