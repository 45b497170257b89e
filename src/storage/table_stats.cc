#include "storage/table_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "storage/columnar_mirror.h"

namespace nestra {

namespace {

// splitmix64 finalizer over Value::SqlHash: SqlHash is consistent with SQL
// key equality (int 1 collides with float 1.0, as distinct-counting wants)
// but is not guaranteed uniform in its high bits, which HyperLogLog needs.
uint64_t MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Deterministic HyperLogLog with 2^12 registers (~1.6% standard error).
// Only consulted once the exact hash set overflows kExactDistinctCap.
class Hll {
 public:
  static constexpr int kBits = 12;
  static constexpr int kRegisters = 1 << kBits;

  void Add(uint64_t hash) {
    const uint32_t idx = static_cast<uint32_t>(hash >> (64 - kBits));
    const uint64_t rest = hash << kBits;
    // Rank = leading zeros of the remaining 52 bits, + 1. An all-zero rest
    // gets the max rank.
    uint8_t rank = 1;
    if (rest == 0) {
      rank = 64 - kBits + 1;
    } else {
      uint64_t r = rest;
      while ((r & (1ULL << 63)) == 0) {
        ++rank;
        r <<= 1;
      }
    }
    if (rank > registers_[idx]) registers_[idx] = rank;
  }

  int64_t Estimate() const {
    const double m = kRegisters;
    double sum = 0;
    int zeros = 0;
    for (const uint8_t r : registers_) {
      sum += std::ldexp(1.0, -static_cast<int>(r));
      if (r == 0) ++zeros;
    }
    constexpr double kAlpha = 0.7213 / (1.0 + 1.079 / kRegisters);
    double estimate = kAlpha * m * m / sum;
    if (estimate <= 2.5 * m && zeros > 0) {
      estimate = m * std::log(m / zeros);  // small-range correction
    }
    return static_cast<int64_t>(estimate + 0.5);
  }

 private:
  uint8_t registers_[kRegisters] = {};
};

// Exact distinct counting switches to the sketch past this many distinct
// hashes; well above every test table and far below bench-scale lineitem.
constexpr size_t kExactDistinctCap = 1 << 16;

// Set of 64-bit hashes with open addressing: linear probing over a
// power-of-two slot array kept at most half full, one flat allocation
// instead of a node per element. Keys are MixHash outputs, so their low
// bits index the slots directly. Slot value 0 means empty; the key 0 itself
// is tracked by a flag.
class FlatHashSet {
 public:
  size_t size() const { return size_; }

  void Insert(uint64_t h) {
    if (h == 0) {
      if (!has_zero_) {
        has_zero_ = true;
        ++size_;
      }
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == h) return;
      i = (i + 1) & mask;
    }
    slots_[i] = h;
    ++size_;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(uint64_t{0});
    for (const uint64_t h : slots_) {
      if (h != 0) fn(h);
    }
  }

 private:
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
    const size_t mask = slots_.size() - 1;
    for (const uint64_t h : old) {
      if (h == 0) continue;
      size_t i = static_cast<size_t>(h) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = h;
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
  bool has_zero_ = false;
};

struct ColumnAccumulator {
  ColumnStats stats;
  FlatHashSet exact;
  std::unique_ptr<Hll> sketch;
  bool saw_non_numeric = false;

  void AddNull() { ++stats.null_count; }

  // One non-NULL value with Value::SqlHash `sql_hash`.
  void AddHash(uint64_t sql_hash) {
    ++stats.non_null_count;
    const uint64_t h = MixHash(sql_hash);
    if (sketch == nullptr) {
      exact.Insert(h);
      if (exact.size() > kExactDistinctCap) {
        sketch = std::make_unique<Hll>();
        exact.ForEach([this](uint64_t e) { sketch->Add(e); });
        exact = FlatHashSet();
      }
    } else {
      sketch->Add(h);
    }
  }

  void AddString(const std::string& s) {
    AddHash(static_cast<uint64_t>(Value::SqlHashString(s)));
    saw_non_numeric = true;
  }

  // One non-NULL numeric value; `x` is its int64 when `is_int`.
  void AddNumber(double d, bool is_int, int64_t x) {
    AddHash(static_cast<uint64_t>(Value::SqlHashNumber(d)));
    if (!stats.has_range) {
      stats.has_range = true;
      stats.min = stats.max = d;
      stats.integer_only = is_int;
      if (is_int) stats.min_i64 = stats.max_i64 = x;
      return;
    }
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    if (!is_int) {
      stats.integer_only = false;
    } else if (stats.integer_only) {
      stats.min_i64 = std::min(stats.min_i64, x);
      stats.max_i64 = std::max(stats.max_i64, x);
    }
  }

  void Add(const Value& v) {
    if (v.is_null()) {
      AddNull();
    } else if (v.is_string()) {
      AddString(v.string());
    } else {
      AddNumber(*v.AsDouble(), v.is_int(), v.is_int() ? v.int64() : 0);
    }
  }

  ColumnStats Finish() {
    if (saw_non_numeric) {
      stats.has_range = false;
      stats.integer_only = false;
    }
    if (sketch != nullptr) {
      stats.distinct = sketch->Estimate();
      stats.distinct_exact = false;
    } else {
      stats.distinct = static_cast<int64_t>(exact.size());
      stats.distinct_exact = true;
    }
    if (!stats.integer_only) {
      stats.min_i64 = 0;
      stats.max_i64 = 0;
    }
    return stats;
  }
};

void WidenZone(ZoneEntry* zone, double d) {
  zone->all_null = false;
  if (std::isnan(d)) {
    // NaN compares "equal" to every number (Value::Apply), so it passes
    // =, <= and >= against any literal: a granule holding one proves
    // nothing. std::min/std::max would skip it; widen to the whole line.
    zone->has_range = true;
    zone->min = -std::numeric_limits<double>::infinity();
    zone->max = std::numeric_limits<double>::infinity();
    return;
  }
  if (!zone->has_range) {
    zone->has_range = true;
    zone->min = zone->max = d;
  } else {
    zone->min = std::min(zone->min, d);
    zone->max = std::max(zone->max, d);
  }
}

// Feeds one granule's cells of one column, in row order, to the column's
// accumulator and the granule's zone entry — straight from the typed
// arrays, building no Values except for generic (mixed-type) storage.
void AccumulateGranule(const ColumnVector& col, ColumnAccumulator* acc,
                       ZoneEntry* zone) {
  const int64_t n = col.size();
  const std::vector<uint8_t>& nulls = col.nulls();
  if (col.generic()) {
    for (const Value& v : col.values()) {
      acc->Add(v);
      if (v.is_null()) continue;
      if (v.is_string()) {
        zone->all_null = false;
      } else {
        WidenZone(zone, *v.AsDouble());
      }
    }
    return;
  }
  switch (col.type()) {
    case TypeId::kInt64:
    case TypeId::kDate: {
      const std::vector<int64_t>& data = col.ints();
      for (int64_t i = 0; i < n; ++i) {
        if (nulls[i] != 0) {
          acc->AddNull();
          continue;
        }
        const double d = static_cast<double>(data[i]);
        acc->AddNumber(d, /*is_int=*/true, data[i]);
        WidenZone(zone, d);
      }
      break;
    }
    case TypeId::kFloat64: {
      const std::vector<double>& data = col.doubles();
      for (int64_t i = 0; i < n; ++i) {
        if (nulls[i] != 0) {
          acc->AddNull();
          continue;
        }
        acc->AddNumber(data[i], /*is_int=*/false, 0);
        WidenZone(zone, data[i]);
      }
      break;
    }
    case TypeId::kString: {
      const std::vector<std::string>& data = col.strings();
      for (int64_t i = 0; i < n; ++i) {
        if (nulls[i] != 0) {
          acc->AddNull();
          continue;
        }
        acc->AddString(data[i]);
        zone->all_null = false;
      }
      break;
    }
  }
}

}  // namespace

TableStats CollectTableStats(const ColumnarMirror& mirror) {
  TableStats out;
  const int num_cols = mirror.schema().num_fields();
  out.row_count = mirror.num_rows();
  TableZoneMap& zones = out.zones;
  zones.num_columns = num_cols;
  zones.num_granules = mirror.num_granules();
  zones.entries.assign(
      static_cast<size_t>(zones.num_granules * num_cols), ZoneEntry{});
  out.columns.reserve(static_cast<size_t>(num_cols));
  for (int c = 0; c < num_cols; ++c) {
    ColumnAccumulator acc;
    for (int64_t g = 0; g < zones.num_granules; ++g) {
      AccumulateGranule(
          mirror.granule(g).column(c), &acc,
          &zones.entries[static_cast<size_t>(g * num_cols + c)]);
    }
    out.columns.push_back(acc.Finish());
  }
  return out;
}

TableStats CollectTableStats(const Table& table) {
  return CollectTableStats(ColumnarMirror(table));
}

std::string TableStats::ToString() const {
  std::ostringstream oss;
  oss << "rows=" << row_count << " granules=" << zones.num_granules;
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnStats& s = columns[c];
    oss << "\n  col " << c << ": nulls=" << s.null_count
        << " distinct" << (s.distinct_exact ? "=" : "~=") << s.distinct;
    if (s.has_range) {
      if (s.integer_only) {
        oss << " range=[" << s.min_i64 << ", " << s.max_i64 << "]";
      } else {
        oss << " range=[" << s.min << ", " << s.max << "]";
      }
    }
  }
  return oss.str();
}

}  // namespace nestra
