// Reference interpreter for the EVEREST IR. Executes tensor-dialect
// functions (value semantics) and kernel-dialect functions (buffer
// semantics) on f64 data. Used by the test suite to prove that the
// tensor→kernel lowering and the loop transformations (tiling,
// interchange) preserve semantics. Constant folding evaluates scalars with
// the same apply_binop/apply_unop, so it cannot drift from this reference.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ir/module.hpp"

namespace everest::compiler {

/// A runtime tensor value: shape + row-major f64 data.
struct TensorValue {
  std::vector<std::int64_t> shape;
  std::vector<double> data;

  [[nodiscard]] std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (std::int64_t d : shape) n *= d;
    return n;
  }
  static TensorValue zeros(std::vector<std::int64_t> shape);
  static TensorValue from(std::vector<std::int64_t> shape,
                          std::vector<double> data);
};

/// Scalar semantics of kernel.binop (add, sub, mul, div, mod, min, max,
/// cmplt, cmple) and kernel.unop, shared by both interpreters and by
/// constant folding. `div` by zero, and `mod` by a divisor that truncates
/// to zero, give 0; an unknown binop gives 0 and an unknown unop returns x.
double apply_binop(const std::string& kind, double a, double b);
double apply_unop(const std::string& fn, double x);

/// Executes a tensor-dialect function on the given inputs (one TensorValue
/// per function argument). Returns one value per function result.
Result<std::vector<TensorValue>> run_tensor_function(
    const ir::Module& module, const std::string& function,
    const std::vector<TensorValue>& inputs);

/// Executes a kernel-dialect function produced by lower_to_kernel. The
/// caller passes values for the original inputs and for the promoted
/// constants IN SIGNATURE ORDER (inputs..., constants...); output buffers
/// are allocated internally and returned (one per original output).
Result<std::vector<TensorValue>> run_kernel_function(
    ir::Module& module, const std::string& function,
    const std::vector<TensorValue>& inputs_and_constants);

/// Extracts the promoted-constant payloads of a lowered kernel's source
/// tensor function, in promotion order (so callers can bind them).
Result<std::vector<TensorValue>> promoted_constant_values(
    const ir::Module& module, const std::string& tensor_function);

}  // namespace everest::compiler
