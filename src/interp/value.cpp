#include "interp/value.hpp"

#include "support/strings.hpp"

namespace rca::interp {

Value Value::make_array(std::vector<long long> dims_in) {
  Value out;
  out.kind = Kind::kArray;
  long long total = 1;
  for (long long d : dims_in) {
    RCA_CHECK_MSG(d >= 0, "negative array extent");
    total *= d;
  }
  out.dims = std::move(dims_in);
  out.array.assign(static_cast<std::size_t>(total), 0.0);
  return out;
}

double Value::as_real() const {
  switch (kind) {
    case Kind::kReal: return real;
    case Kind::kInt: return static_cast<double>(integer);
    case Kind::kLogical: return logical ? 1.0 : 0.0;
    default:
      throw EvalError("expected a numeric scalar value");
  }
}

long long Value::as_int() const {
  switch (kind) {
    case Kind::kInt: return integer;
    case Kind::kReal: return static_cast<long long>(real);
    case Kind::kLogical: return logical ? 1 : 0;
    default:
      throw EvalError("expected an integer value");
  }
}

bool Value::as_logical() const {
  switch (kind) {
    case Kind::kLogical: return logical;
    case Kind::kInt: return integer != 0;
    default:
      throw EvalError("expected a logical value");
  }
}

std::size_t Value::flat_index(const long long* subscripts,
                              std::size_t n) const {
  if (n != dims.size()) {
    throw EvalError(strfmt("rank mismatch: %zu subscripts for rank-%zu array",
                           n, dims.size()));
  }
  std::size_t idx = 0;
  for (std::size_t k = 0; k < dims.size(); ++k) {
    const long long s = subscripts[k];
    if (s < 1 || s > dims[k]) {
      throw EvalError(strfmt("subscript %lld out of bounds [1, %lld]", s,
                             dims[k]));
    }
    idx = idx * static_cast<std::size_t>(dims[k]) +
          static_cast<std::size_t>(s - 1);
  }
  return idx;
}

}  // namespace rca::interp
