#pragma once
/// \file datatype.hpp
/// Typed reduction support for reduce/allreduce/scan.

#include <cstddef>
#include <functional>
#include <span>

#include "common/bytes.hpp"
#include "mpi/types.hpp"

namespace mcmpi::mpi {

/// Size in bytes of one element of `type`.
std::size_t datatype_size(Datatype type);

/// True if `op` is defined for `type` (logical ops require integers;
/// Op::kCustom requires a registered custom function).
bool op_defined(Op op, Datatype type);

/// True if operand order is irrelevant for `op`.  Non-commutative ops
/// (Op::kCustom) force every reduction algorithm onto an order-preserving
/// path: operands combine in communicator rank order (MPI's canonical
/// reduction order).
bool op_commutative(Op op);

/// `inout = in ∘ inout` over `count` elements — MPI's user-function
/// convention, where `in` holds the partial of the LOWER-ranked operands.
/// Every reduction algorithm in this codebase honors that orientation, so
/// rank order is observable (and tested) for non-commutative custom ops.
/// Preconditions: both spans hold `count * datatype_size(type)` bytes and
/// op_defined(op, type).
void apply_op(Op op, Datatype type, std::span<const std::uint8_t> in,
              std::span<std::uint8_t> inout, std::size_t count);

/// Custom reduction body (the MPI_Op_create analogue): must compute
/// `inout = in ∘ inout` with `in` the lower-ranked partial.  The simulation
/// is one address space, so registration is process-global.
using CustomOpFn =
    std::function<void(Datatype type, std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> inout, std::size_t count)>;

/// Registers the Op::kCustom body.  Every reduction algorithm hands it
/// whole operands, so it may combine elements in groups of any extent
/// (e.g. 4 for a 2x2 matrix product).
void set_custom_op(CustomOpFn fn);
void clear_custom_op();

/// RAII registration for tests: installs on construction, clears on scope
/// exit.
struct CustomOpGuard {
  explicit CustomOpGuard(CustomOpFn fn) { set_custom_op(std::move(fn)); }
  ~CustomOpGuard() { clear_custom_op(); }
  CustomOpGuard(const CustomOpGuard&) = delete;
  CustomOpGuard& operator=(const CustomOpGuard&) = delete;
};

/// Maps a C++ arithmetic type to its Datatype tag.
template <typename T>
constexpr Datatype datatype_of();

template <>
constexpr Datatype datatype_of<std::uint8_t>() {
  return Datatype::kByte;
}
template <>
constexpr Datatype datatype_of<std::int32_t>() {
  return Datatype::kInt32;
}
template <>
constexpr Datatype datatype_of<std::int64_t>() {
  return Datatype::kInt64;
}
template <>
constexpr Datatype datatype_of<double>() {
  return Datatype::kDouble;
}

}  // namespace mcmpi::mpi
