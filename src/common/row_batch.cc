#include "common/row_batch.h"

#include <utility>

namespace nestra {

void ColumnVector::Reset(TypeId type) {
  type_ = type;
  Clear();
}

void ColumnVector::Clear() {
  generic_ = false;
  nulls_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  values_.clear();
}

void ColumnVector::ConvertToGeneric() {
  values_.clear();
  values_.reserve(nulls_.size());
  for (size_t i = 0; i < nulls_.size(); ++i) {
    if (nulls_[i] != 0) {
      values_.push_back(Value::Null());
      continue;
    }
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        values_.push_back(Value::Int64(ints_[i]));
        break;
      case TypeId::kFloat64:
        values_.push_back(Value::Float64(doubles_[i]));
        break;
      case TypeId::kString:
        values_.push_back(Value::String(std::move(strings_[i])));
        break;
    }
  }
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  generic_ = true;
}

void ColumnVector::AppendRefs(const std::vector<RowBatch>& batches, int col,
                              const uint64_t* refs, int64_t n) {
  if (n == 0) return;
  AppendRefs(SourceColumn(batches, col), refs, n);
}

void ColumnVector::AppendRefs(const SourceColumn& src, const uint64_t* refs,
                              int64_t n) {
  if (n == 0) return;
  if (generic_ || !src.TypedAs(type_)) {
    for (int64_t k = 0; k < n; ++k) {
      if (refs[k] == kNullRef) {
        AppendNull();
      } else {
        AppendFrom(src.batch(RefBatch(refs[k])), RefRow(refs[k]));
      }
    }
    return;
  }
  // Typed to typed: a null slot carries a zero/empty placeholder, so
  // copying source slots verbatim and writing a placeholder per pad keeps
  // that invariant.
  const size_t base = nulls_.size();
  nulls_.resize(base + static_cast<size_t>(n));
  uint8_t* nulls = nulls_.data() + base;
  const uint8_t* const* src_nulls = src.nulls();
  for (int64_t k = 0; k < n; ++k) {
    const uint64_t ref = refs[k];
    nulls[k] = ref == kNullRef ? 1 : src_nulls[RefBatch(ref)][RefRow(ref)];
  }
  switch (type_) {
    case TypeId::kInt64:
    case TypeId::kDate: {
      ints_.resize(base + static_cast<size_t>(n));
      int64_t* ints = ints_.data() + base;
      const int64_t* const* vals = src.values<int64_t>();
      for (int64_t k = 0; k < n; ++k) {
        const uint64_t ref = refs[k];
        ints[k] = ref == kNullRef ? 0 : vals[RefBatch(ref)][RefRow(ref)];
      }
      break;
    }
    case TypeId::kFloat64: {
      doubles_.resize(base + static_cast<size_t>(n));
      double* doubles = doubles_.data() + base;
      const double* const* vals = src.values<double>();
      for (int64_t k = 0; k < n; ++k) {
        const uint64_t ref = refs[k];
        doubles[k] = ref == kNullRef ? 0.0 : vals[RefBatch(ref)][RefRow(ref)];
      }
      break;
    }
    case TypeId::kString: {
      ReserveStrings(base + static_cast<size_t>(n));
      const std::string* const* vals = src.values<std::string>();
      for (int64_t k = 0; k < n; ++k) {
        const uint64_t ref = refs[k];
        if (ref == kNullRef) {
          strings_.emplace_back();
        } else {
          strings_.push_back(vals[RefBatch(ref)][RefRow(ref)]);
        }
      }
      break;
    }
  }
}

SourceColumn::SourceColumn(const std::vector<RowBatch>& batches, int col) {
  cols_.reserve(batches.size());
  for (const RowBatch& b : batches) {
    const ColumnVector& c = b.column(col);
    if (cols_.empty()) type_ = c.type_;
    uniform_ = uniform_ && !c.generic_ && c.type_ == type_;
    cols_.push_back(&c);
  }
  if (!uniform_) return;
  nulls_.reserve(cols_.size());
  for (const ColumnVector* c : cols_) {
    nulls_.push_back(c->nulls_.data());
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        ints_.push_back(c->ints_.data());
        break;
      case TypeId::kFloat64:
        doubles_.push_back(c->doubles_.data());
        break;
      case TypeId::kString:
        strings_.push_back(c->strings_.data());
        break;
    }
  }
}

int64_t SourceColumn::StringBytes(const uint64_t* refs, int64_t n) const {
  if (uniform_ && type_ != TypeId::kString) return 0;
  int64_t bytes = 0;
  if (uniform_) {
    // NULL slots hold empty placeholders, so they add nothing.
    const std::string* const* vals = values<std::string>();
    for (int64_t k = 0; k < n; ++k) {
      if (refs[k] == kNullRef) continue;
      bytes += static_cast<int64_t>(vals[RefBatch(refs[k])][RefRow(refs[k])]
                                        .size());
    }
    return bytes;
  }
  for (int64_t k = 0; k < n; ++k) {
    if (refs[k] == kNullRef) continue;
    const ColumnVector& c = *cols_[RefBatch(refs[k])];
    const size_t r = static_cast<size_t>(RefRow(refs[k]));
    if (c.generic_) {
      if (c.values_[r].is_string()) {
        bytes += static_cast<int64_t>(c.values_[r].string().size());
      }
    } else if (c.type_ == TypeId::kString) {
      bytes += static_cast<int64_t>(c.strings_[r].size());
    }
  }
  return bytes;
}

int64_t SourceColumn::GatheredByteSize(TypeId type, const uint64_t* refs,
                                       int64_t n) const {
  // The gather turns the column generic exactly when a non-NULL cell's
  // Value does not fit `type`'s storage (ColumnVector::Append); a typed
  // source of the same storage class never does.
  bool generic = false;
  if (!TypedAs(type)) {
    for (int64_t k = 0; k < n && !generic; ++k) {
      if (refs[k] == kNullRef) continue;
      const ColumnVector& c = *cols_[RefBatch(refs[k])];
      const int64_t r = RefRow(refs[k]);
      if (c.IsNull(r)) continue;
      generic = !ColumnVector::MatchesStorage(type, c.GetValue(r));
    }
  }
  int64_t bytes = n;  // null bytes
  if (generic) {
    return bytes + n * static_cast<int64_t>(sizeof(Value)) +
           StringBytes(refs, n);
  }
  switch (type) {
    case TypeId::kInt64:
    case TypeId::kDate:
      return bytes + n * static_cast<int64_t>(sizeof(int64_t));
    case TypeId::kFloat64:
      return bytes + n * static_cast<int64_t>(sizeof(double));
    case TypeId::kString:
      return bytes + n * static_cast<int64_t>(sizeof(std::string)) +
             StringBytes(refs, n);
  }
  return bytes;
}

int64_t ColumnVector::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(nulls_.size());  // null bytes
  if (generic_) {
    for (const Value& v : values_) {
      bytes += static_cast<int64_t>(sizeof(Value));
      if (v.is_string()) bytes += static_cast<int64_t>(v.string().size());
    }
    return bytes;
  }
  switch (type_) {
    case TypeId::kInt64:
    case TypeId::kDate:
      bytes += static_cast<int64_t>(ints_.size() * sizeof(int64_t));
      break;
    case TypeId::kFloat64:
      bytes += static_cast<int64_t>(doubles_.size() * sizeof(double));
      break;
    case TypeId::kString:
      for (const std::string& s : strings_) {
        bytes += static_cast<int64_t>(sizeof(std::string) + s.size());
      }
      break;
  }
  return bytes;
}

int64_t ColumnVector::StringBytes() const {
  int64_t bytes = 0;
  if (generic_) {
    for (const Value& v : values_) {
      if (v.is_string()) bytes += static_cast<int64_t>(v.string().size());
    }
  } else if (type_ == TypeId::kString) {
    // NULL slots hold empty placeholders, so they add nothing.
    for (const std::string& s : strings_) {
      bytes += static_cast<int64_t>(s.size());
    }
  }
  return bytes;
}

int64_t RowBatch::ByteSize() const {
  int64_t bytes = 0;
  for (const ColumnVector& col : columns_) bytes += col.ByteSize();
  return bytes;
}

void RowBatch::Reset(const Schema& schema) {
  if (schema_ == &schema &&
      columns_.size() == static_cast<size_t>(schema.num_fields())) {
    Clear();
    return;
  }
  schema_ = &schema;
  columns_.resize(schema.num_fields());
  for (int i = 0; i < schema.num_fields(); ++i) {
    columns_[i].Reset(schema.field(i).type);
  }
  num_rows_ = 0;
}

void RowBatch::Clear() {
  for (ColumnVector& col : columns_) col.Clear();
  num_rows_ = 0;
}

std::string RowBatch::ToString(int64_t max_rows) const {
  std::string out = "RowBatch(" + std::to_string(num_rows_) + " rows)";
  const int64_t n = num_rows_ < max_rows ? num_rows_ : max_rows;
  for (int64_t i = 0; i < n; ++i) {
    out += "\n  " + MaterializeRow(i).ToString();
  }
  if (n < num_rows_) out += "\n  ...";
  return out;
}

}  // namespace nestra
