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
  // The source column of every batch, looked up once per call rather than
  // through the batch once per cell.
  std::vector<const ColumnVector*> srcs;
  srcs.reserve(batches.size());
  bool typed = !generic_;
  for (const RowBatch& b : batches) {
    const ColumnVector& src = b.column(col);
    typed = typed && !src.generic_ && src.type_ == type_;
    srcs.push_back(&src);
  }
  // A raw pointer: the byte stores below could alias the vector's own.
  const ColumnVector* const* cols = srcs.data();
  const auto src = [cols](uint64_t ref) -> const ColumnVector& {
    return *cols[RefBatch(ref)];
  };
  if (!typed) {
    for (int64_t k = 0; k < n; ++k) {
      if (refs[k] == kNullRef) {
        AppendNull();
      } else {
        AppendFrom(src(refs[k]), RefRow(refs[k]));
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
  for (int64_t k = 0; k < n; ++k) {
    const uint64_t ref = refs[k];
    nulls[k] = ref == kNullRef ? 1 : src(ref).nulls_[RefRow(ref)];
  }
  switch (type_) {
    case TypeId::kInt64:
    case TypeId::kDate: {
      ints_.resize(base + static_cast<size_t>(n));
      int64_t* ints = ints_.data() + base;
      for (int64_t k = 0; k < n; ++k) {
        const uint64_t ref = refs[k];
        ints[k] = ref == kNullRef ? 0 : src(ref).ints_[RefRow(ref)];
      }
      break;
    }
    case TypeId::kFloat64: {
      doubles_.resize(base + static_cast<size_t>(n));
      double* doubles = doubles_.data() + base;
      for (int64_t k = 0; k < n; ++k) {
        const uint64_t ref = refs[k];
        doubles[k] = ref == kNullRef ? 0.0 : src(ref).doubles_[RefRow(ref)];
      }
      break;
    }
    case TypeId::kString:
      for (int64_t k = 0; k < n; ++k) {
        const uint64_t ref = refs[k];
        if (ref == kNullRef) {
          strings_.emplace_back();
        } else {
          strings_.push_back(src(ref).strings_[RefRow(ref)]);
        }
      }
      break;
  }
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
