#include "compiler/interpreter.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "dsl/einsum.hpp"

namespace everest::compiler {

TensorValue TensorValue::zeros(std::vector<std::int64_t> shape) {
  TensorValue v;
  v.shape = std::move(shape);
  v.data.assign(static_cast<std::size_t>(v.num_elements()), 0.0);
  return v;
}

TensorValue TensorValue::from(std::vector<std::int64_t> shape,
                              std::vector<double> data) {
  TensorValue v;
  v.shape = std::move(shape);
  v.data = std::move(data);
  return v;
}

namespace {

using ir::ValueKey;

/// Truncates toward zero like a cast, but maps NaN and values outside
/// int64's range to INT64_MIN, which is what x86's cvttsd2si returns for
/// them; the plain cast is undefined behaviour there.
std::int64_t to_int64(double x) {
  constexpr double kTwo63 = 9223372036854775808.0;
  return x >= -kTwo63 && x < kTwo63 ? static_cast<std::int64_t>(x)
                                    : std::numeric_limits<std::int64_t>::min();
}

}  // namespace

double apply_binop(const std::string& kind, double a, double b) {
  if (kind == "add") return a + b;
  if (kind == "sub") return a - b;
  if (kind == "mul") return a * b;
  if (kind == "div") return b != 0.0 ? a / b : 0.0;
  if (kind == "mod") {
    // Integer remainder of the truncated operands. A divisor that truncates
    // to 0 gives 0, like division by zero; x % -1 is 0 for every x, and
    // skipping it avoids INT64_MIN % -1, which traps.
    const std::int64_t divisor = to_int64(b);
    if (divisor == 0 || divisor == -1) return 0.0;
    return static_cast<double>(to_int64(a) % divisor);
  }
  if (kind == "min") return std::min(a, b);
  if (kind == "max") return std::max(a, b);
  if (kind == "cmplt") return a < b ? 1.0 : 0.0;
  if (kind == "cmple") return a <= b ? 1.0 : 0.0;
  return 0.0;
}

double apply_unop(const std::string& fn, double x) {
  if (fn == "relu") return x > 0 ? x : 0.0;
  if (fn == "exp") return std::exp(x);
  if (fn == "log") return x > 0 ? std::log(x) : 0.0;
  if (fn == "sqrt") return x >= 0 ? std::sqrt(x) : 0.0;
  if (fn == "tanh") return std::tanh(x);
  if (fn == "sigmoid") return 1.0 / (1.0 + std::exp(-x));
  if (fn == "abs") return std::abs(x);
  if (fn == "neg") return -x;
  if (fn == "square") return x * x;
  return x;
}

namespace {

// ------------------------------------------------------- tensor dialect --

class TensorInterpreter {
 public:
  explicit TensorInterpreter(const ir::Module& module) : module_(module) {}

  Result<std::vector<TensorValue>> run(const ir::Function& fn,
                                       const std::vector<TensorValue>& inputs) {
    if (inputs.size() != fn.input_types().size()) {
      return InvalidArgument("function '" + fn.name() + "' expects " +
                             std::to_string(fn.input_types().size()) +
                             " inputs, got " + std::to_string(inputs.size()));
    }
    std::map<ValueKey, TensorValue> env;
    auto& mutable_fn = const_cast<ir::Function&>(fn);
    for (unsigned i = 0; i < fn.entry().num_args(); ++i) {
      env[key_of(mutable_fn.arg(i))] = inputs[i];
    }
    for (const auto& op : fn.entry()) {
      if (op->name() == "builtin.return") {
        std::vector<TensorValue> results;
        for (std::size_t i = 0; i < op->num_operands(); ++i) {
          results.push_back(env.at(key_of(op->operand(i))));
        }
        return results;
      }
      EVEREST_ASSIGN_OR_RETURN(TensorValue result, eval(*op, env));
      env[{op.get(), 0}] = std::move(result);
    }
    return FailedPrecondition("function has no builtin.return");
  }

 private:
  Result<TensorValue> eval(const ir::Operation& op,
                           std::map<ValueKey, TensorValue>& env) {
    const std::string& name = op.name();
    auto operand = [&](std::size_t i) -> const TensorValue& {
      return env.at(key_of(op.operand(i)));
    };
    if (name == "builtin.constant") {
      const ir::Attribute* a = op.attr("value");
      TensorValue v;
      v.shape = {};
      v.data = {a->is_double() ? a->as_double()
                               : static_cast<double>(a->as_int())};
      return v;
    }
    if (name == "tensor.constant") {
      const ir::Type& t = op.result_types()[0];
      return TensorValue::from(t.shape(), op.attr("value")->as_dense_f64());
    }
    if (name == "tensor.add" || name == "tensor.sub" || name == "tensor.mul" ||
        name == "tensor.div") {
      const std::string kind = name.substr(7);
      const TensorValue& a = operand(0);
      const TensorValue& b = operand(1);
      TensorValue out = a;
      for (std::size_t i = 0; i < out.data.size(); ++i) {
        out.data[i] = apply_binop(kind, a.data[i], b.data[i]);
      }
      return out;
    }
    if (name == "tensor.scale") {
      const TensorValue& a = operand(0);
      const double f = operand(1).data.at(0);
      TensorValue out = a;
      for (double& v : out.data) v *= f;
      return out;
    }
    if (name == "tensor.map") {
      const std::string fn = op.str_attr("fn");
      TensorValue out = operand(0);
      for (double& v : out.data) v = apply_unop(fn, v);
      return out;
    }
    if (name == "tensor.matmul") {
      const TensorValue& a = operand(0);
      const TensorValue& b = operand(1);
      const std::int64_t m = a.shape[0], k = a.shape[1], n = b.shape[1];
      TensorValue out = TensorValue::zeros({m, n});
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const double av = a.data[static_cast<std::size_t>(i * k + kk)];
          for (std::int64_t j = 0; j < n; ++j) {
            out.data[static_cast<std::size_t>(i * n + j)] +=
                av * b.data[static_cast<std::size_t>(kk * n + j)];
          }
        }
      }
      return out;
    }
    if (name == "tensor.reshape") {
      TensorValue out = operand(0);
      out.shape = op.result_types()[0].shape();
      return out;
    }
    if (name == "tensor.contract") return eval_contract(op, env);
    if (name == "tensor.reduce") {
      const std::string kind = op.str_attr("kind");
      const TensorValue& a = operand(0);
      TensorValue out = TensorValue::zeros({});
      if (a.data.empty()) return out;
      double acc = kind == "max" || kind == "min" ? a.data[0] : 0.0;
      for (double v : a.data) {
        if (kind == "max") acc = std::max(acc, v);
        else if (kind == "min") acc = std::min(acc, v);
        else acc += v;
      }
      if (kind == "mean") acc /= static_cast<double>(a.data.size());
      out.data[0] = acc;
      return out;
    }
    if (name == "tensor.transpose") {
      const TensorValue& a = operand(0);
      const auto perm = op.attr("perm")->as_int_array();
      const ir::Type& rt = op.result_types()[0];
      TensorValue out = TensorValue::zeros(rt.shape());
      const std::size_t rank = perm.size();
      // Strides.
      std::vector<std::int64_t> in_stride(rank, 1), out_stride(rank, 1);
      for (std::size_t d = rank - 1; d-- > 0;) {
        in_stride[d] = in_stride[d + 1] * a.shape[d + 1];
        out_stride[d] = out_stride[d + 1] * out.shape[d + 1];
      }
      std::vector<std::int64_t> idx(rank, 0);
      const std::int64_t total = out.num_elements();
      for (std::int64_t flat = 0; flat < total; ++flat) {
        // out[idx] = in[j] with j[perm[d]] = idx[d].
        std::int64_t in_flat = 0;
        for (std::size_t d = 0; d < rank; ++d) {
          in_flat += idx[d] * in_stride[static_cast<std::size_t>(perm[d])];
        }
        out.data[static_cast<std::size_t>(flat)] =
            a.data[static_cast<std::size_t>(in_flat)];
        for (std::size_t d = rank; d-- > 0;) {
          if (++idx[d] < out.shape[d]) break;
          idx[d] = 0;
        }
      }
      return out;
    }
    return Unimplemented("tensor interpreter: unsupported op '" + name + "'");
  }

  Result<TensorValue> eval_contract(const ir::Operation& op,
                                    std::map<ValueKey, TensorValue>& env) {
    EVEREST_ASSIGN_OR_RETURN(dsl::EinsumSpec spec,
                             dsl::parse_einsum(op.str_attr("spec")));
    std::vector<const TensorValue*> operands;
    std::vector<std::vector<std::int64_t>> shapes;
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      operands.push_back(&env.at(key_of(op.operand(i))));
      shapes.push_back(operands.back()->shape);
    }
    EVEREST_ASSIGN_OR_RETURN(auto extents,
                             dsl::infer_index_extents(spec, shapes));
    EVEREST_ASSIGN_OR_RETURN(auto out_shape,
                             dsl::infer_output_shape(spec, shapes));
    TensorValue out = TensorValue::zeros(out_shape);
    const std::string order = spec.all_indices();
    std::map<char, std::int64_t> idx;
    for (char c : order) idx[c] = 0;
    // Iterate the full index space.
    std::function<void(std::size_t)> recurse = [&](std::size_t depth) {
      if (depth == order.size()) {
        double product = 1.0;
        for (std::size_t i = 0; i < operands.size(); ++i) {
          std::int64_t flat = 0;
          for (char c : spec.inputs[i]) {
            flat = flat * extents.at(c) + idx.at(c);
          }
          product *= operands[i]->data[static_cast<std::size_t>(flat)];
        }
        std::int64_t out_flat = 0;
        for (char c : spec.output) {
          out_flat = out_flat * extents.at(c) + idx.at(c);
        }
        out.data[static_cast<std::size_t>(out_flat)] += product;
        return;
      }
      const char c = order[depth];
      for (std::int64_t i = 0; i < extents.at(c); ++i) {
        idx[c] = i;
        recurse(depth + 1);
      }
    };
    recurse(0);
    return out;
  }

  const ir::Module& module_;
};

// ------------------------------------------------------- kernel dialect --

std::int64_t fn_int_attr(const ir::Function& fn, const char* key,
                         std::int64_t fallback) {
  const ir::Attribute* a = fn.attr(key);
  return a != nullptr && a->is_int() ? a->as_int() : fallback;
}

class KernelInterpreter {
 public:
  Result<std::vector<TensorValue>> run(
      ir::Function& fn, const std::vector<TensorValue>& bound) {
    const auto num_inputs =
        static_cast<std::size_t>(fn_int_attr(fn, "ev.num_inputs", 0));
    const auto num_constants =
        static_cast<std::size_t>(fn_int_attr(fn, "ev.promoted_constants", 0));
    const auto num_outputs =
        static_cast<std::size_t>(fn_int_attr(fn, "ev.num_outputs", 0));
    if (num_inputs + num_outputs == 0 ||
        fn.entry().num_args() != num_inputs + num_constants + num_outputs) {
      return FailedPrecondition(
          "function '" + fn.name() +
          "' lacks lowering metadata (run lower_to_kernel first)");
    }
    if (bound.size() != num_inputs + num_constants) {
      return InvalidArgument("expected " +
                             std::to_string(num_inputs + num_constants) +
                             " bound values, got " +
                             std::to_string(bound.size()));
    }
    // Bind buffers.
    for (std::size_t i = 0; i < bound.size(); ++i) {
      auto buf = std::make_shared<TensorValue>(bound[i]);
      buffers_[key_of(fn.arg(static_cast<unsigned>(i)))] = buf;
    }
    std::vector<std::shared_ptr<TensorValue>> outputs;
    for (std::size_t o = 0; o < num_outputs; ++o) {
      const unsigned arg = static_cast<unsigned>(bound.size() + o);
      const ir::Type& t = fn.input_types()[arg];
      auto buf = std::make_shared<TensorValue>(TensorValue::zeros(t.shape()));
      buffers_[key_of(fn.arg(arg))] = buf;
      outputs.push_back(buf);
    }
    EVEREST_RETURN_IF_ERROR(exec_block(fn.entry()));
    std::vector<TensorValue> out;
    for (const auto& buf : outputs) out.push_back(*buf);
    return out;
  }

 private:
  Status exec_block(ir::Block& block) {
    for (auto& op : block) {
      EVEREST_RETURN_IF_ERROR(exec_op(*op));
    }
    return OkStatus();
  }

  Status exec_op(ir::Operation& op) {
    const std::string& name = op.name();
    if (name == "builtin.return" || name == "kernel.yield") return OkStatus();
    if (name == "builtin.constant") {
      const ir::Attribute* a = op.attr("value");
      scalars_[{&op, 0}] = a->is_double()
                               ? a->as_double()
                               : static_cast<double>(a->as_int());
      return OkStatus();
    }
    if (name == "kernel.alloc") {
      buffers_[{&op, 0}] = std::make_shared<TensorValue>(
          TensorValue::zeros(op.result_types()[0].shape()));
      return OkStatus();
    }
    if (name == "kernel.for") {
      const std::int64_t lb = op.int_attr("lb");
      const std::int64_t ub = op.int_attr("ub");
      const std::int64_t step = op.int_attr("step", 1);
      ir::Block& body = op.region(0).front();
      for (std::int64_t i = lb; i < ub; i += step) {
        scalars_[key_of(body.arg(0))] = static_cast<double>(i);
        EVEREST_RETURN_IF_ERROR(exec_block(body));
      }
      return OkStatus();
    }
    if (name == "kernel.load") {
      auto buf = buffers_.find(key_of(op.operand(0)));
      if (buf == buffers_.end()) return Internal("load from unbound buffer");
      EVEREST_ASSIGN_OR_RETURN(const std::size_t flat,
                               flat_index(op, 1, *buf->second, "load"));
      scalars_[{&op, 0}] = buf->second->data[flat];
      return OkStatus();
    }
    if (name == "kernel.store") {
      auto buf = buffers_.find(key_of(op.operand(1)));
      if (buf == buffers_.end()) return Internal("store to unbound buffer");
      EVEREST_ASSIGN_OR_RETURN(const std::size_t flat,
                               flat_index(op, 2, *buf->second, "store"));
      buf->second->data[flat] = scalar(op.operand(0));
      return OkStatus();
    }
    if (name == "kernel.binop") {
      scalars_[{&op, 0}] = apply_binop(op.str_attr("op"), scalar(op.operand(0)),
                                       scalar(op.operand(1)));
      return OkStatus();
    }
    if (name == "kernel.unop") {
      scalars_[{&op, 0}] =
          apply_unop(op.str_attr("fn"), scalar(op.operand(0)));
      return OkStatus();
    }
    if (name == "kernel.cast") {
      scalars_[{&op, 0}] = scalar(op.operand(0));
      return OkStatus();
    }
    return Unimplemented("kernel interpreter: unsupported op '" + name + "'");
  }

  /// Row-major element offset of the index operands op.operand(first..)
  /// into `buf`. Each index is checked against its dimension while still
  /// a double: a negative, too large or non-finite index is OUT_OF_RANGE
  /// rather than wrapping into another element or reaching an undefined
  /// int64 cast. So is an offset past the data a bound tensor carries,
  /// which need not match its shape.
  Result<std::size_t> flat_index(const ir::Operation& op, std::size_t first,
                                 const TensorValue& buf,
                                 const char* access) const {
    std::size_t flat = 0;
    for (std::size_t d = 0; d < buf.shape.size(); ++d) {
      const double index = scalar(op.operand(first + d));
      const std::int64_t extent = buf.shape[d];
      if (!(index >= 0.0 && index < static_cast<double>(extent))) {
        return OutOfRange(std::string(access) + " index " +
                          std::to_string(index) + " outside dimension " +
                          std::to_string(d) + " of extent " +
                          std::to_string(extent));
      }
      flat = flat * static_cast<std::size_t>(extent) +
             static_cast<std::size_t>(index);
    }
    if (flat >= buf.data.size()) {
      return OutOfRange(std::string(access) + " offset " +
                        std::to_string(flat) + " past the " +
                        std::to_string(buf.data.size()) +
                        " elements the buffer holds");
    }
    return flat;
  }

  double scalar(const ir::Value& v) const {
    auto it = scalars_.find(key_of(v));
    assert(it != scalars_.end() && "use of undefined scalar");
    return it == scalars_.end() ? 0.0 : it->second;
  }

  std::map<ValueKey, double> scalars_;
  std::map<ValueKey, std::shared_ptr<TensorValue>> buffers_;
};

}  // namespace

Result<std::vector<TensorValue>> run_tensor_function(
    const ir::Module& module, const std::string& function,
    const std::vector<TensorValue>& inputs) {
  const ir::Function* fn = module.find(function);
  if (fn == nullptr) return NotFound("function '" + function + "' not found");
  return TensorInterpreter(module).run(*fn, inputs);
}

Result<std::vector<TensorValue>> run_kernel_function(
    ir::Module& module, const std::string& function,
    const std::vector<TensorValue>& inputs_and_constants) {
  ir::Function* fn = module.find(function);
  if (fn == nullptr) return NotFound("function '" + function + "' not found");
  return KernelInterpreter().run(*fn, inputs_and_constants);
}

Result<std::vector<TensorValue>> promoted_constant_values(
    const ir::Module& module, const std::string& tensor_function) {
  const ir::Function* fn = module.find(tensor_function);
  if (fn == nullptr) {
    return NotFound("function '" + tensor_function + "' not found");
  }
  std::vector<TensorValue> out;
  for (const auto& op : fn->entry()) {
    if (op->name() != "tensor.constant") continue;
    out.push_back(TensorValue::from(op->result_types()[0].shape(),
                                    op->attr("value")->as_dense_f64()));
  }
  return out;
}

}  // namespace everest::compiler
