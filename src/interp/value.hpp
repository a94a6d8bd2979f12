// Runtime values for the Fortran-subset interpreter.
//
// Reals are IEEE doubles; arrays are 1-D double buffers (the corpus models
// CAM's column arrays); derived types are component maps holding shared
// slots so dummy-argument aliasing works like Fortran's pass-by-reference.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace rca::lang {
struct DerivedTypeDef;
}

namespace rca::interp {

struct Value;
using ValueSlot = std::shared_ptr<Value>;

struct DerivedValue {
  std::string type_name;
  std::map<std::string, ValueSlot> components;
  /// The type this value was allocated as, and its component slots in
  /// declaration order: the interpreter's resolved `%name` fast path.
  const lang::DerivedTypeDef* def = nullptr;
  std::vector<Value*> fields;
};

struct Value {
  enum class Kind { kReal, kInt, kLogical, kChar, kArray, kDerived };

  Kind kind = Kind::kReal;
  double real = 0.0;
  long long integer = 0;
  bool logical = false;
  std::string chars;
  std::vector<double> array;  // flattened row-major
  std::vector<long long> dims;
  std::shared_ptr<DerivedValue> derived;

  static Value make_real(double v) {
    Value out;
    out.kind = Kind::kReal;
    out.real = v;
    return out;
  }
  static Value make_int(long long v) {
    Value out;
    out.kind = Kind::kInt;
    out.integer = v;
    return out;
  }
  static Value make_logical(bool v) {
    Value out;
    out.kind = Kind::kLogical;
    out.logical = v;
    return out;
  }
  static Value make_char(std::string v) {
    Value out;
    out.kind = Kind::kChar;
    out.chars = std::move(v);
    return out;
  }
  static Value make_array(std::vector<long long> dims_in);

  bool is_numeric() const { return kind == Kind::kReal || kind == Kind::kInt; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Numeric scalar as double; throws EvalError otherwise.
  double as_real() const;
  long long as_int() const;
  bool as_logical() const;

  std::size_t element_count() const { return array.size(); }

  /// Row-major flat index from 1-based Fortran subscripts.
  std::size_t flat_index(const std::vector<long long>& subscripts) const {
    return flat_index(subscripts.data(), subscripts.size());
  }
  std::size_t flat_index(const long long* subscripts, std::size_t n) const;
};

}  // namespace rca::interp
