#include "mpi/datatype.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace mcmpi::mpi {

std::size_t datatype_size(Datatype type) {
  switch (type) {
    case Datatype::kByte:
      return 1;
    case Datatype::kInt32:
      return 4;
    case Datatype::kInt64:
      return 8;
    case Datatype::kDouble:
      return 8;
  }
  MC_ASSERT_MSG(false, "unknown datatype");
  return 0;
}

namespace {

CustomOpFn& custom_op() {
  static CustomOpFn fn;
  return fn;
}

}  // namespace

bool op_defined(Op op, Datatype type) {
  switch (op) {
    case Op::kSum:
    case Op::kProd:
    case Op::kMax:
    case Op::kMin:
      return true;
    case Op::kLand:
    case Op::kLor:
    case Op::kBand:
    case Op::kBor:
      return type != Datatype::kDouble;
    case Op::kCustom:
      return static_cast<bool>(custom_op());
  }
  return false;
}

bool op_commutative(Op op) { return op != Op::kCustom; }

void set_custom_op(CustomOpFn fn) { custom_op() = std::move(fn); }

void clear_custom_op() { custom_op() = {}; }

namespace {

template <typename T>
void apply_typed(Op op, const std::uint8_t* in, std::uint8_t* inout,
                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    T a;
    T b;
    std::memcpy(&a, in + i * sizeof(T), sizeof(T));
    std::memcpy(&b, inout + i * sizeof(T), sizeof(T));
    T r{};
    switch (op) {
      case Op::kSum:
        r = static_cast<T>(a + b);
        break;
      case Op::kProd:
        r = static_cast<T>(a * b);
        break;
      case Op::kMax:
        r = std::max(a, b);
        break;
      case Op::kMin:
        r = std::min(a, b);
        break;
      case Op::kLand:
        if constexpr (std::is_integral_v<T>) {
          r = static_cast<T>(a && b);
        }
        break;
      case Op::kLor:
        if constexpr (std::is_integral_v<T>) {
          r = static_cast<T>(a || b);
        }
        break;
      case Op::kBand:
        if constexpr (std::is_integral_v<T>) {
          r = static_cast<T>(a & b);
        }
        break;
      case Op::kBor:
        if constexpr (std::is_integral_v<T>) {
          r = static_cast<T>(a | b);
        }
        break;
      case Op::kCustom:
        break;  // dispatched before apply_typed; unreachable
    }
    std::memcpy(inout + i * sizeof(T), &r, sizeof(T));
  }
}

}  // namespace

void apply_op(Op op, Datatype type, std::span<const std::uint8_t> in,
              std::span<std::uint8_t> inout, std::size_t count) {
  MC_EXPECTS(op_defined(op, type));
  const std::size_t bytes = count * datatype_size(type);
  MC_EXPECTS(in.size() >= bytes && inout.size() >= bytes);
  if (op == Op::kCustom) {
    custom_op()(type, in, inout, count);
    return;
  }
  switch (type) {
    case Datatype::kByte:
      apply_typed<std::uint8_t>(op, in.data(), inout.data(), count);
      return;
    case Datatype::kInt32:
      apply_typed<std::int32_t>(op, in.data(), inout.data(), count);
      return;
    case Datatype::kInt64:
      apply_typed<std::int64_t>(op, in.data(), inout.data(), count);
      return;
    case Datatype::kDouble:
      apply_typed<double>(op, in.data(), inout.data(), count);
      return;
  }
  MC_ASSERT_MSG(false, "unknown datatype");
}

}  // namespace mcmpi::mpi
