#include "compiler/lowering.hpp"

#include <map>
#include <set>
#include <vector>

#include "dsl/einsum.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"

namespace everest::compiler {

namespace {

using ir::Attribute;
using ir::Block;
using ir::MemorySpace;
using ir::OpBuilder;
using ir::Operation;
using ir::ScalarKind;
using ir::Type;
using ir::Value;
using ir::ValueKey;

bool is_elementwise(const Operation& op) {
  const std::string& n = op.name();
  return n == "tensor.add" || n == "tensor.sub" || n == "tensor.mul" ||
         n == "tensor.div" || n == "tensor.map" || n == "tensor.scale";
}

/// A generated loop nest: builders positioned in the innermost body plus
/// the induction variables outer→inner.
struct Nest {
  OpBuilder body;
  std::vector<Value> ivs;
};

/// Emits a perfect loop nest over `extents` at the current insertion point
/// of `fn_builder`. Rank-0 gets one single-iteration loop with an unused iv.
Nest emit_nest(OpBuilder& fn_builder, std::vector<std::int64_t> extents) {
  if (extents.empty()) extents = {1};
  Nest nest;
  OpBuilder* current = &fn_builder;
  OpBuilder storage;  // reused as we descend
  std::vector<Block*> bodies;
  for (std::int64_t extent : extents) {
    Operation& loop = current->create("kernel.for", {}, {},
                                      {{"lb", Attribute::integer(0)},
                                       {"ub", Attribute::integer(extent)},
                                       {"step", Attribute::integer(1)}});
    Block& body = loop.emplace_region().emplace_block({Type::index()});
    bodies.push_back(&body);
    nest.ivs.push_back(body.arg(0));
    storage = OpBuilder(&body);
    current = &storage;
  }
  nest.body = *current;
  // Close every level with kernel.yield after the caller fills the body:
  // the caller must call close(); we instead append yields lazily via
  // a helper below.
  (void)bodies;
  return nest;
}

/// Appends kernel.yield terminators to every open loop under `fn_builder`'s
/// last created nest. We simply walk the op that was just created.
void close_nest(Operation& top_loop) {
  Operation* current = &top_loop;
  while (true) {
    Block& body = current->region(0).front();
    Operation* nested = nullptr;
    for (auto& op : body) {
      if (op->name() == "kernel.for") nested = op.get();
    }
    OpBuilder b(&body);
    b.create("kernel.yield", {}, {});
    if (nested == nullptr) break;
    current = nested;
  }
}

class KernelLowerer {
 public:
  KernelLowerer(ir::Module& module, ir::Function& src,
                const LoweringOptions& options)
      : module_(module), src_(src), options_(options) {}

  Result<std::string> run() {
    EVEREST_RETURN_IF_ERROR(validate());
    compute_uses();
    mark_fused();
    EVEREST_RETURN_IF_ERROR(build_signature());
    EVEREST_RETURN_IF_ERROR(lower_body());
    return dst_->name();
  }

 private:
  Status validate() {
    if (src_.body().num_blocks() != 1) {
      return InvalidArgument("tensor functions must have a single block");
    }
    for (const auto& op : src_.entry()) {
      const std::string& n = op->name();
      if (n.rfind("tensor.", 0) == 0) {
        if (n == "tensor.broadcast") {
          return Unimplemented("lowering of '" + n + "' is not supported yet");
        }
        continue;
      }
      if (n == "builtin.constant" || n == "builtin.return") continue;
      return InvalidArgument("cannot lower op '" + n + "' to kernel dialect");
    }
    return OkStatus();
  }

  void compute_uses() {
    for (const auto& op : src_.entry()) {
      for (std::size_t i = 0; i < op->num_operands(); ++i) {
        ++uses_[key_of(op->operand(i))];
      }
    }
  }

  void mark_fused() {
    if (!options_.fuse_elementwise) return;
    // A producer fuses into its consumer when it is elementwise, has
    // exactly one use, and that use is an elementwise op (scan consumers).
    for (const auto& op : src_.entry()) {
      if (!is_elementwise(*op)) continue;
      for (std::size_t i = 0; i < op->num_operands(); ++i) {
        const Value& v = op->operand(i);
        if (!v.is_op_result()) continue;
        const Operation* producer = v.defining_op();
        if (!is_elementwise(*producer)) continue;
        if (uses_[key_of(v)] != 1) continue;
        fused_.insert(producer);
      }
    }
  }

  Status build_signature() {
    std::vector<Type> params;
    // Inputs.
    for (const Type& t : src_.input_types()) {
      params.push_back(Type::memref(t.shape(), t.elem(), MemorySpace::kDevice));
    }
    // Promoted constants (in program order).
    for (const auto& op : src_.entry()) {
      if (op->name() != "tensor.constant") continue;
      const Type& t = op->result_types()[0];
      promoted_.push_back(op.get());
      params.push_back(Type::memref(t.shape(), t.elem(), MemorySpace::kDevice));
    }
    // Outputs.
    const Operation& ret = src_.entry().back();
    if (ret.name() != "builtin.return") {
      return InvalidArgument("tensor function must end with builtin.return");
    }
    for (std::size_t i = 0; i < ret.num_operands(); ++i) {
      const Type& t = ret.operand(i).type();
      params.push_back(Type::memref(t.shape(), t.elem(), MemorySpace::kDevice));
    }
    EVEREST_ASSIGN_OR_RETURN(
        dst_, module_.add_function(src_.name() + options_.suffix,
                                   Type::function(params, {})));
    dst_->set_attr("ev.lowered_from", Attribute::string(src_.name()));
    dst_->set_attr("ev.num_inputs",
                   Attribute::integer(
                       static_cast<std::int64_t>(src_.input_types().size())));
    dst_->set_attr("ev.promoted_constants",
                   Attribute::integer(
                       static_cast<std::int64_t>(promoted_.size())));
    dst_->set_attr("ev.num_outputs",
                   Attribute::integer(
                       static_cast<std::int64_t>(ret.num_operands())));
    for (const auto& [k, v] : src_.attributes()) dst_->set_attr(k, v);

    // Buffer map: source args and promoted constants.
    for (unsigned i = 0; i < src_.entry().num_args(); ++i) {
      buffer_[key_of(const_cast<ir::Function&>(src_).arg(i))] = dst_->arg(i);
    }
    const unsigned base = src_.entry().num_args();
    for (std::size_t k = 0; k < promoted_.size(); ++k) {
      buffer_[{promoted_[k], 0}] = dst_->arg(base + static_cast<unsigned>(k));
    }
    out_arg_base_ = base + static_cast<unsigned>(promoted_.size());
    return OkStatus();
  }

  /// Destination buffer for a materialized op result: an output arg when
  /// the value is returned, else a fresh on-chip alloc.
  Value dest_buffer_for(Operation& op, OpBuilder& b) {
    const Operation& ret = src_.entry().back();
    for (std::size_t i = 0; i < ret.num_operands(); ++i) {
      if (ret.operand(i) == op.result(0)) {
        return dst_->arg(out_arg_base_ + static_cast<unsigned>(i));
      }
    }
    const Type& t = op.result_types()[0];
    return b.create_value("kernel.alloc", {},
                          Type::memref(t.shape(), t.elem(),
                                       MemorySpace::kOnChip));
  }

  /// Scalar evaluation of an elementwise expression tree in a nest body.
  Result<Value> emit_scalar(const Value& v, OpBuilder& body,
                            const std::vector<Value>& ivs) {
    // Materialized value → load.
    auto it = buffer_.find(key_of(v));
    if (it != buffer_.end()) {
      std::vector<Value> operands = {it->second};
      const std::size_t rank = it->second.type().rank();
      for (std::size_t d = 0; d < rank; ++d) operands.push_back(ivs[d]);
      return body.create_value("kernel.load", std::move(operands), Type::f64());
    }
    if (!v.is_op_result()) {
      return Internal("unmaterialized block argument in elementwise tree");
    }
    Operation* def = v.defining_op();
    if (def->name() == "builtin.constant") {
      return body.constant_f64(def->double_attr("value"));
    }
    if (def->name() == "tensor.map") {
      EVEREST_ASSIGN_OR_RETURN(Value x, emit_scalar(def->operand(0), body, ivs));
      return body.create_value("kernel.unop", {x}, Type::f64(),
                               {{"fn", Attribute::string(def->str_attr("fn"))}});
    }
    if (def->name() == "tensor.scale") {
      EVEREST_ASSIGN_OR_RETURN(Value x, emit_scalar(def->operand(0), body, ivs));
      EVEREST_ASSIGN_OR_RETURN(Value f, emit_scalar(def->operand(1), body, ivs));
      return body.create_value("kernel.binop", {x, f}, Type::f64(),
                               {{"op", Attribute::string("mul")}});
    }
    // Binary elementwise.
    const std::string kind = def->name().substr(std::string("tensor.").size());
    EVEREST_ASSIGN_OR_RETURN(Value a, emit_scalar(def->operand(0), body, ivs));
    EVEREST_ASSIGN_OR_RETURN(Value b2, emit_scalar(def->operand(1), body, ivs));
    return body.create_value("kernel.binop", {a, b2}, Type::f64(),
                             {{"op", Attribute::string(kind)}});
  }

  /// Store `scalar` into buffer at the nest indices.
  static void emit_store(OpBuilder& body, Value scalar, Value buffer,
                         const std::vector<Value>& ivs) {
    std::vector<Value> operands = {scalar, buffer};
    const std::size_t rank = buffer.type().rank();
    for (std::size_t d = 0; d < rank; ++d) operands.push_back(ivs[d]);
    body.create("kernel.store", std::move(operands), {});
  }

  Operation& last_top_op() {
    return dst_->entry().back();
  }

  Status lower_elementwise(Operation& op, OpBuilder& b) {
    Value dest = dest_buffer_for(op, b);
    Nest nest = emit_nest(b, op.result_types()[0].shape());
    Operation& top = last_top_op();
    EVEREST_ASSIGN_OR_RETURN(Value scalar,
                             emit_scalar(op.result(0), nest.body, nest.ivs));
    emit_store(nest.body, scalar, dest, nest.ivs);
    close_nest(top);
    buffer_[key_of(op.result(0))] = dest;
    return OkStatus();
  }

  /// Loads operand `v` (must be materialized) at the given index values.
  Result<Value> load_at(const Value& v, OpBuilder& body,
                        const std::vector<Value>& indices) {
    auto it = buffer_.find(key_of(v));
    if (it == buffer_.end()) return Internal("operand not materialized");
    std::vector<Value> operands = {it->second};
    for (const Value& idx : indices) operands.push_back(idx);
    return body.create_value("kernel.load", std::move(operands), Type::f64());
  }

  Status emit_zero_init(Value dest, OpBuilder& b) {
    Nest nest = emit_nest(b, dest.type().shape());
    Operation& top = last_top_op();
    Value zero = nest.body.constant_f64(0.0);
    emit_store(nest.body, zero, dest, nest.ivs);
    close_nest(top);
    return OkStatus();
  }

  Status lower_matmul(Operation& op, OpBuilder& b) {
    Value dest = dest_buffer_for(op, b);
    EVEREST_RETURN_IF_ERROR(emit_zero_init(dest, b));
    const auto& a_shape = op.operand(0).type().shape();
    const auto& b_shape = op.operand(1).type().shape();
    // i,k,j order: the reduction (k) is NOT innermost, so the C[i,j]
    // accumulation advances with j and the pipeline reaches II=1 (the
    // classic HLS-friendly matmul form).
    Nest nest = emit_nest(b, {a_shape[0], a_shape[1], b_shape[1]});
    Operation& top = last_top_op();
    const Value i = nest.ivs[0], k = nest.ivs[1], j = nest.ivs[2];
    EVEREST_ASSIGN_OR_RETURN(Value a, load_at(op.operand(0), nest.body, {i, k}));
    EVEREST_ASSIGN_OR_RETURN(Value bv, load_at(op.operand(1), nest.body, {k, j}));
    std::vector<Value> c_ops = {dest, i, j};
    Value c = nest.body.create_value("kernel.load", c_ops, Type::f64());
    Value prod = nest.body.create_value("kernel.binop", {a, bv}, Type::f64(),
                                        {{"op", Attribute::string("mul")}});
    Value sum = nest.body.create_value("kernel.binop", {c, prod}, Type::f64(),
                                       {{"op", Attribute::string("add")}});
    emit_store(nest.body, sum, dest, {i, j});
    close_nest(top);
    buffer_[key_of(op.result(0))] = dest;
    return OkStatus();
  }

  Status lower_contract(Operation& op, OpBuilder& b) {
    EVEREST_ASSIGN_OR_RETURN(dsl::EinsumSpec spec,
                             dsl::parse_einsum(op.str_attr("spec")));
    std::vector<std::vector<std::int64_t>> shapes;
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      shapes.push_back(op.operand(i).type().shape());
    }
    EVEREST_ASSIGN_OR_RETURN(auto extents,
                             dsl::infer_index_extents(spec, shapes));
    Value dest = dest_buffer_for(op, b);
    EVEREST_RETURN_IF_ERROR(emit_zero_init(dest, b));

    // Loop order: contracted letters outside, output letters innermost, so
    // the accumulator address advances with the innermost loop (II=1).
    std::string order = spec.contracted_indices() + spec.output;
    std::vector<std::int64_t> loop_extents;
    for (char c : order) loop_extents.push_back(extents.at(c));
    Nest nest = emit_nest(b, loop_extents);
    Operation& top = last_top_op();
    std::map<char, Value> iv_of;
    for (std::size_t d = 0; d < order.size(); ++d) iv_of[order[d]] = nest.ivs[d];

    // Multiply all operands together.
    Value product;
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      std::vector<Value> indices;
      for (char c : spec.inputs[i]) indices.push_back(iv_of.at(c));
      EVEREST_ASSIGN_OR_RETURN(Value x, load_at(op.operand(i), nest.body, indices));
      product = product.valid()
                    ? nest.body.create_value("kernel.binop", {product, x},
                                             Type::f64(),
                                             {{"op", Attribute::string("mul")}})
                    : x;
    }
    std::vector<Value> out_indices;
    for (char c : spec.output) out_indices.push_back(iv_of.at(c));
    std::vector<Value> load_ops = {dest};
    for (const Value& idx : out_indices) load_ops.push_back(idx);
    Value acc = nest.body.create_value("kernel.load", load_ops, Type::f64());
    Value sum = nest.body.create_value("kernel.binop", {acc, product},
                                       Type::f64(),
                                       {{"op", Attribute::string("add")}});
    emit_store(nest.body, sum, dest, out_indices);
    close_nest(top);
    buffer_[key_of(op.result(0))] = dest;
    return OkStatus();
  }

  Status lower_reduce(Operation& op, OpBuilder& b) {
    const std::string kind = op.str_attr("kind");
    Value dest = dest_buffer_for(op, b);
    if (kind == "max" || kind == "min") {
      // Initialize with the first element so negative data reduces correctly.
      Nest init = emit_nest(b, {});
      Operation& init_top = last_top_op();
      std::vector<Value> load_ops = {buffer_.at(key_of(op.operand(0)))};
      for (std::size_t d = 0; d < op.operand(0).type().rank(); ++d) {
        load_ops.push_back(init.body.constant_index(0));
      }
      Value first =
          init.body.create_value("kernel.load", std::move(load_ops), Type::f64());
      emit_store(init.body, first, dest, {});
      close_nest(init_top);
    } else {
      EVEREST_RETURN_IF_ERROR(emit_zero_init(dest, b));
    }
    const auto& in_shape = op.operand(0).type().shape();
    Nest nest = emit_nest(b, in_shape);
    Operation& top = last_top_op();
    EVEREST_ASSIGN_OR_RETURN(Value x, load_at(op.operand(0), nest.body, nest.ivs));
    Value acc = nest.body.create_value("kernel.load", {dest}, Type::f64());
    const std::string binop =
        (kind == "max") ? "max" : (kind == "min") ? "min" : "add";
    Value next = nest.body.create_value("kernel.binop", {acc, x}, Type::f64(),
                                        {{"op", Attribute::string(binop)}});
    emit_store(nest.body, next, dest, {});
    close_nest(top);
    if (kind == "mean") {
      const double inv_n =
          1.0 / static_cast<double>(op.operand(0).type().num_elements());
      Nest fix = emit_nest(b, {});
      Operation& fix_top = last_top_op();
      Value sum = fix.body.create_value("kernel.load", {dest}, Type::f64());
      Value f = fix.body.constant_f64(inv_n);
      Value mean = fix.body.create_value("kernel.binop", {sum, f}, Type::f64(),
                                         {{"op", Attribute::string("mul")}});
      emit_store(fix.body, mean, dest, {});
      close_nest(fix_top);
    }
    buffer_[key_of(op.result(0))] = dest;
    return OkStatus();
  }

  Status lower_transpose(Operation& op, OpBuilder& b) {
    const auto perm = op.attr("perm")->as_int_array();
    Value dest = dest_buffer_for(op, b);
    Nest nest = emit_nest(b, op.result_types()[0].shape());
    Operation& top = last_top_op();
    // out[i0..] = in[j0..] with j[perm[d]] = i[d].
    std::vector<Value> in_indices(perm.size());
    for (std::size_t d = 0; d < perm.size(); ++d) {
      in_indices[static_cast<std::size_t>(perm[d])] = nest.ivs[d];
    }
    EVEREST_ASSIGN_OR_RETURN(Value x,
                             load_at(op.operand(0), nest.body, in_indices));
    emit_store(nest.body, x, dest, nest.ivs);
    close_nest(top);
    buffer_[key_of(op.result(0))] = dest;
    return OkStatus();
  }

  /// Reshape: one flat loop; per-buffer multi-dim indices are recovered
  /// with div/mod address arithmetic (non-affine for the HLS analyzer,
  /// which then falls back to conservative access modeling).
  Status lower_reshape(Operation& op, OpBuilder& b) {
    Value dest = dest_buffer_for(op, b);
    const Type& out_t = op.result_types()[0];
    const std::int64_t total = out_t.num_elements();
    Nest nest = emit_nest(b, {total});
    Operation& top = last_top_op();
    Value flat = nest.ivs[0];
    auto indices_for = [&](const std::vector<std::int64_t>& shape)
        -> std::vector<Value> {
      std::vector<Value> out;
      std::int64_t stride = 1;
      std::vector<std::int64_t> strides(shape.size(), 1);
      for (std::size_t d = shape.size(); d-- > 0;) {
        strides[d] = stride;
        stride *= shape[d];
      }
      for (std::size_t d = 0; d < shape.size(); ++d) {
        Value s = nest.body.constant_index(strides[d]);
        Value q = nest.body.create_value(
            "kernel.binop", {flat, s}, Type::index(),
            {{"op", Attribute::string("div")}});
        Value m = nest.body.constant_index(shape[d]);
        out.push_back(nest.body.create_value(
            "kernel.binop", {q, m}, Type::index(),
            {{"op", Attribute::string("mod")}}));
      }
      return out;
    };
    const Value in_buf = buffer_.at(key_of(op.operand(0)));
    std::vector<Value> load_ops = {in_buf};
    for (Value idx : indices_for(in_buf.type().shape())) {
      load_ops.push_back(idx);
    }
    Value x = nest.body.create_value("kernel.load", std::move(load_ops),
                                     Type::f64());
    emit_store(nest.body, x, dest, indices_for(dest.type().shape()));
    close_nest(top);
    buffer_[key_of(op.result(0))] = dest;
    return OkStatus();
  }

  /// Copies buffer `src` into output argument `dst` (pass-through returns).
  Status emit_copy(Value source, Value dest, OpBuilder& b) {
    Nest nest = emit_nest(b, dest.type().shape());
    Operation& top = last_top_op();
    std::vector<Value> load_ops = {source};
    for (std::size_t d = 0; d < source.type().rank(); ++d) {
      load_ops.push_back(nest.ivs[d]);
    }
    Value x = nest.body.create_value("kernel.load", load_ops, Type::f64());
    emit_store(nest.body, x, dest, nest.ivs);
    close_nest(top);
    return OkStatus();
  }

  Status lower_body() {
    OpBuilder b(&dst_->entry());
    for (auto& op : src_.entry()) {
      const std::string& n = op->name();
      if (n == "builtin.constant" || n == "tensor.constant") continue;
      if (n == "builtin.return") break;
      if (fused_.count(op.get()) > 0) continue;
      if (is_elementwise(*op)) {
        EVEREST_RETURN_IF_ERROR(lower_elementwise(*op, b));
      } else if (n == "tensor.matmul") {
        EVEREST_RETURN_IF_ERROR(lower_matmul(*op, b));
      } else if (n == "tensor.contract") {
        EVEREST_RETURN_IF_ERROR(lower_contract(*op, b));
      } else if (n == "tensor.reduce") {
        EVEREST_RETURN_IF_ERROR(lower_reduce(*op, b));
      } else if (n == "tensor.transpose") {
        EVEREST_RETURN_IF_ERROR(lower_transpose(*op, b));
      } else if (n == "tensor.reshape") {
        EVEREST_RETURN_IF_ERROR(lower_reshape(*op, b));
      } else {
        return Unimplemented("no kernel lowering for '" + n + "'");
      }
    }
    // Pass-through returns (args/constants or values already written to a
    // different buffer) get explicit copies into their output args.
    const Operation& ret = src_.entry().back();
    for (std::size_t i = 0; i < ret.num_operands(); ++i) {
      const Value out_arg = dst_->arg(out_arg_base_ + static_cast<unsigned>(i));
      auto it = buffer_.find(key_of(ret.operand(i)));
      if (it == buffer_.end()) {
        return Internal("returned value was never materialized");
      }
      if (!(it->second == out_arg)) {
        EVEREST_RETURN_IF_ERROR(emit_copy(it->second, out_arg, b));
      }
    }
    b.ret();
    return OkStatus();
  }

  ir::Module& module_;
  ir::Function& src_;
  LoweringOptions options_;
  ir::Function* dst_ = nullptr;
  std::map<ValueKey, std::size_t> uses_;
  std::set<const Operation*> fused_;
  std::vector<const Operation*> promoted_;
  std::map<ValueKey, Value> buffer_;
  unsigned out_arg_base_ = 0;
};

}  // namespace

Result<std::string> lower_to_kernel(ir::Module& module,
                                    const std::string& tensor_fn,
                                    const LoweringOptions& options) {
  ir::register_everest_dialects();
  ir::Function* fn = module.find(tensor_fn);
  if (fn == nullptr) {
    return NotFound("function '" + tensor_fn + "' not in module");
  }
  if (module.find(tensor_fn + options.suffix) != nullptr) {
    return AlreadyExists("function '" + tensor_fn + options.suffix +
                         "' already exists");
  }
  return KernelLowerer(module, *fn, options).run();
}

}  // namespace everest::compiler
