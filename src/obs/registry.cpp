#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <tuple>

namespace atum::obs {

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);  // 0..3 exact
  // Octave e = floor(log2 v) >= kSubBits; split into kSubBuckets linear
  // sub-buckets by the bits just below the leading one.
  const std::uint32_t e = static_cast<std::uint32_t>(std::bit_width(v)) - 1;
  const std::uint64_t sub = (v >> (e - kSubBits)) & (kSubBuckets - 1);
  return static_cast<std::size_t>((e - kSubBits + 1) * kSubBuckets + sub);
}

std::uint64_t Histogram::bucket_lower_bound(std::size_t idx) {
  if (idx < kSubBuckets) return idx;
  const std::uint64_t block = idx / kSubBuckets;  // >= 1
  const std::uint64_t sub = idx % kSubBuckets;
  const std::uint32_t e = static_cast<std::uint32_t>(block + kSubBits - 1);
  return (std::uint64_t{1} << e) + (sub << (e - kSubBits));
}

Counter& Registry::counter(std::string name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Key key{std::move(name), sorted(std::move(labels))};
  Entry& e = cells_[std::move(key)];
  if (e.counter == nullptr) {
    e.kind = CellKind::kCounter;
    e.counter = &counters_.emplace_back();
  }
  return *e.counter;
}

Histogram& Registry::histogram(std::string name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Key key{std::move(name), sorted(std::move(labels))};
  Entry& e = cells_[std::move(key)];
  if (e.histogram == nullptr) {
    e.kind = CellKind::kHistogram;
    e.histogram = &histograms_.emplace_back();
  }
  return *e.histogram;
}

void Registry::probe(std::string name, Labels labels, std::function<std::uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Key key{std::move(name), sorted(std::move(labels))};
  Entry& e = cells_[std::move(key)];
  e.kind = CellKind::kProbe;
  e.probe = std::move(fn);
}

Sample Registry::sample(std::int64_t at) const {
  std::lock_guard<std::mutex> lock(mu_);
  Sample s;
  s.at = at;
  s.cells.reserve(cells_.size());
  for (const auto& [key, entry] : cells_) {  // std::map — sorted, stable
    SampledCell cell;
    cell.name = key.name;
    cell.labels = key.labels;
    cell.kind = entry.kind;
    switch (entry.kind) {
      case CellKind::kCounter:
        cell.value = static_cast<std::int64_t>(entry.counter->value());
        break;
      case CellKind::kProbe:
        cell.value = static_cast<std::int64_t>(entry.probe());
        break;
      case CellKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        cell.value = static_cast<std::int64_t>(h.count());
        cell.sum = h.sum();
        for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
          const std::uint64_t n = h.bucket(i);
          if (n != 0) cell.buckets.emplace_back(Histogram::bucket_lower_bound(i), n);
        }
        break;
      }
    }
    s.cells.push_back(std::move(cell));
  }
  return s;
}

std::uint64_t Registry::value(const std::string& name, const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(Key{name, sorted(labels)});
  if (it == cells_.end()) return 0;
  switch (it->second.kind) {
    case CellKind::kCounter:
      return it->second.counter->value();
    case CellKind::kProbe:
      return it->second.probe();
    case CellKind::kHistogram:
      return it->second.histogram->count();
  }
  return 0;
}

std::uint64_t Sample::value(const std::string& name, const Labels& labels) const {
  const Labels key = sorted(labels);
  auto it = std::lower_bound(cells.begin(), cells.end(), std::tie(name, key),
                             [](const SampledCell& c, const auto& k) {
                               return std::tie(c.name, c.labels) < k;
                             });
  if (it == cells.end() || it->name != name || it->labels != key) return 0;
  return static_cast<std::uint64_t>(it->value);
}

std::size_t Registry::cell_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

}  // namespace atum::obs
