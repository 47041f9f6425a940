#include "compiler/transforms.hpp"

#include <map>
#include <set>

#include "compiler/dependence.hpp"
#include "compiler/interpreter.hpp"
#include "ir/builder.hpp"

namespace everest::compiler {

namespace {

using ir::Attribute;
using ir::Block;
using ir::OpBuilder;
using ir::Operation;
using ir::Type;
using ir::Value;
using ir::ValueKey;

bool is_pure(const Operation& op) {
  const std::string& n = op.name();
  if (n == "builtin.constant" || n == "kernel.binop" || n == "kernel.unop" ||
      n == "kernel.cast") {
    return true;
  }
  // Tensor-dialect value ops are pure; loads/stores/allocs and anything
  // with regions or workflow semantics are not.
  return n.rfind("tensor.", 0) == 0;
}

/// Extracts the f64 payload of a builtin.constant defining `v`, if any.
bool constant_value(const Value& v, double* out) {
  if (!v.is_op_result()) return false;
  const Operation* def = v.defining_op();
  if (def == nullptr || def->name() != "builtin.constant") return false;
  const Attribute* a = def->attr("value");
  if (a == nullptr) return false;
  if (a->is_double()) {
    *out = a->as_double();
    return true;
  }
  if (a->is_int()) {
    *out = static_cast<double>(a->as_int());
    return true;
  }
  return false;
}

/// Applies `fn` to every block in the function (nested included) until no
/// change; returns whether anything changed.
bool for_each_block_fixpoint(ir::Function& fn,
                             const std::function<bool(Block&)>& visit) {
  bool any = false;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Block*> blocks;
    for (auto& b : fn.body()) blocks.push_back(b.get());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      Block* block = blocks[i];
      for (auto& op : *block) {
        for (std::size_t r = 0; r < op->num_regions(); ++r) {
          for (auto& nested : op->region(r)) blocks.push_back(nested.get());
        }
      }
      changed |= visit(*block);
    }
    any |= changed;
  }
  return any;
}

/// Collects use counts across the whole function.
std::map<ValueKey, std::size_t> use_counts(ir::Function& fn) {
  std::map<ValueKey, std::size_t> uses;
  fn.walk([&](Operation& op) {
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      ++uses[key_of(op.operand(i))];
    }
  });
  return uses;
}

}  // namespace

Status ConstantFoldPass::run(ir::Module& module) {
  for (auto& fn : module) {
    for_each_block_fixpoint(*fn, [&](Block& block) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        Operation& op = block.op(i);
        double folded = 0.0;
        bool can_fold = false;
        if (op.name() == "kernel.binop") {
          double a = 0, b = 0;
          if (constant_value(op.operand(0), &a) &&
              constant_value(op.operand(1), &b)) {
            folded = apply_binop(op.str_attr("op"), a, b);
            can_fold = true;
          }
        } else if (op.name() == "kernel.unop") {
          double x = 0;
          if (constant_value(op.operand(0), &x)) {
            folded = apply_unop(op.str_attr("fn"), x);
            can_fold = true;
          }
        }
        if (!can_fold) continue;
        OpBuilder b;
        b.set_insertion_point(&block, i);
        Value replacement =
            b.create_value("builtin.constant", {}, op.result_types()[0],
                           {{"value", Attribute::real(folded)}});
        // The folded op shifted to i+1.
        ir::replace_all_uses(fn->entry(), block.op(i + 1).result(0),
                             replacement);
        block.erase(i + 1);
        return true;
      }
      return false;
    });
  }
  return OkStatus();
}

Status CsePass::run(ir::Module& module) {
  for (auto& fn : module) {
    for_each_block_fixpoint(*fn, [&](Block& block) {
      // signature → index of first occurrence.
      std::map<std::string, std::size_t> seen;
      for (std::size_t i = 0; i < block.size(); ++i) {
        Operation& op = block.op(i);
        if (!is_pure(op) || op.num_results() != 1 || op.num_regions() != 0) {
          continue;
        }
        std::string sig = op.name();
        for (std::size_t k = 0; k < op.num_operands(); ++k) {
          const ValueKey key = key_of(op.operand(k));
          sig += "|" + std::to_string(reinterpret_cast<std::uintptr_t>(key.def)) +
                 ":" + std::to_string(key.index);
        }
        for (const auto& [k, v] : op.attributes()) {
          sig += "|" + k + "=" + v.to_string();
        }
        auto [it, inserted] = seen.emplace(sig, i);
        if (inserted) continue;
        ir::replace_all_uses(fn->entry(), op.result(0),
                             block.op(it->second).result(0));
        block.erase(i);
        return true;
      }
      return false;
    });
  }
  return OkStatus();
}

Status DcePass::run(ir::Module& module) {
  for (auto& fn : module) {
    bool changed = true;
    while (changed) {
      changed = false;
      auto uses = use_counts(*fn);
      for_each_block_fixpoint(*fn, [&](Block& block) {
        for (std::size_t i = 0; i < block.size(); ++i) {
          Operation& op = block.op(i);
          if (!is_pure(op) || op.num_results() == 0) continue;
          bool used = false;
          for (unsigned r = 0; r < op.num_results(); ++r) {
            auto it = uses.find({&op, r});
            used |= it != uses.end() && it->second > 0;
          }
          if (used) continue;
          block.erase(i);
          changed = true;
          return true;
        }
        return false;
      });
    }
  }
  return OkStatus();
}

namespace {

/// Descends a perfect nest; returns the chain of loop ops outer→inner.
Result<std::vector<Operation*>> nest_chain(ir::Function& fn,
                                           std::size_t nest_index) {
  std::vector<Operation*> tops;
  for (auto& op : fn.entry()) {
    if (op->name() == "kernel.for") tops.push_back(op.get());
  }
  if (nest_index >= tops.size()) {
    return NotFound("function has only " + std::to_string(tops.size()) +
                    " loop nests");
  }
  std::vector<Operation*> chain;
  Operation* current = tops[nest_index];
  while (true) {
    chain.push_back(current);
    Block& body = current->region(0).front();
    Operation* nested = nullptr;
    bool other_work = false;
    for (auto& op : body) {
      if (op->name() == "kernel.for") {
        nested = op.get();
      } else if (op->name() != "kernel.yield") {
        other_work = true;
      }
    }
    if (nested == nullptr || other_work) break;
    current = nested;
  }
  return chain;
}

}  // namespace

std::size_t count_loop_nests(const ir::Function& fn) {
  std::size_t count = 0;
  for (const auto& op : fn.entry()) count += op->name() == "kernel.for";
  return count;
}

Status tile_innermost(ir::Function& fn, std::size_t nest_index, int factor) {
  if (factor < 2) return InvalidArgument("tile factor must be >= 2");
  EVEREST_ASSIGN_OR_RETURN(std::vector<Operation*> chain,
                           nest_chain(fn, nest_index));
  Operation* inner = chain.back();
  const std::int64_t lb = inner->int_attr("lb");
  const std::int64_t ub = inner->int_attr("ub");
  const std::int64_t step = inner->int_attr("step", 1);
  if (lb != 0 || step != 1) {
    return FailedPrecondition("tiling requires lb=0, step=1");
  }
  if (ub % factor != 0) {
    return FailedPrecondition("trip count " + std::to_string(ub) +
                              " not divisible by tile factor " +
                              std::to_string(factor));
  }
  Block& old_body = inner->region(0).front();

  // The old loop becomes the tile loop; a fresh inner loop takes the body.
  inner->set_attr("ub", Attribute::integer(ub / factor));
  inner->set_attr("ev.tiled", Attribute::boolean(true));

  auto new_for = std::make_unique<Operation>(
      "kernel.for", std::vector<Value>{}, std::vector<Type>{},
      ir::AttrMap{{"lb", Attribute::integer(0)},
                  {"ub", Attribute::integer(factor)},
                  {"step", Attribute::integer(1)}});
  Block& new_body = new_for->emplace_region().emplace_block({Type::index()});

  // Move the whole old body into the new inner loop.
  while (!old_body.empty()) {
    new_body.append(old_body.take(0));
  }
  // Rebuild the original induction variable: iv = it*factor + ii.
  OpBuilder b;
  b.set_insertion_point(&new_body, 0);
  Value tile_width = b.constant_index(factor);
  Value scaled = b.create_value("kernel.binop", {old_body.arg(0), tile_width},
                                Type::index(), {{"op", Attribute::string("mul")}});
  Value rebuilt = b.create_value("kernel.binop", {scaled, new_body.arg(0)},
                                 Type::index(), {{"op", Attribute::string("add")}});
  // Replace downstream uses of the old iv (skip the rebuild ops themselves).
  for (std::size_t i = 3; i < new_body.size(); ++i) {
    Operation& op = new_body.op(i);
    for (std::size_t k = 0; k < op.num_operands(); ++k) {
      if (op.operand(k) == old_body.arg(0)) op.set_operand(k, rebuilt);
    }
    for (std::size_t r = 0; r < op.num_regions(); ++r) {
      for (auto& nested : op.region(r)) {
        ir::replace_all_uses(*nested, old_body.arg(0), rebuilt);
      }
    }
  }
  // Old body now holds just the inner loop + a yield.
  Operation& inserted = old_body.append(std::move(new_for));
  (void)inserted;
  OpBuilder yb(&old_body);
  yb.create("kernel.yield", {}, {});
  return OkStatus();
}

Status interchange_loops(ir::Function& fn, std::size_t nest_index,
                         std::size_t a, std::size_t b) {
  EVEREST_ASSIGN_OR_RETURN(std::vector<Operation*> chain,
                           nest_chain(fn, nest_index));
  if (a >= chain.size() || b >= chain.size()) {
    return OutOfRange("loop level out of range");
  }
  if (a == b) return OkStatus();

  // Legality: exact direction-vector test — every lexicographically
  // positive dependence must stay positive after the permutation.
  EVEREST_ASSIGN_OR_RETURN(std::vector<DependenceVector> dependences,
                           analyze_dependences(fn, nest_index));
  if (!interchange_is_legal(dependences, a, b)) {
    return FailedPrecondition(
        "interchange would reverse a loop-carried dependence");
  }

  // Swap bounds.
  Operation* la = chain[a];
  Operation* lb_op = chain[b];
  for (const char* key : {"lb", "ub", "step"}) {
    const Attribute* va = la->attr(key);
    const Attribute* vb = lb_op->attr(key);
    Attribute ta = va ? *va : Attribute::integer(key == std::string("step") ? 1 : 0);
    Attribute tb = vb ? *vb : Attribute::integer(key == std::string("step") ? 1 : 0);
    la->set_attr(key, tb);
    lb_op->set_attr(key, ta);
  }
  // Swap uses of the two induction variables everywhere in the nest.
  Value iva = chain[a]->region(0).front().arg(0);
  Value ivb = chain[b]->region(0).front().arg(0);
  chain.front()->walk([&](Operation& op) {
    for (std::size_t k = 0; k < op.num_operands(); ++k) {
      if (op.operand(k) == iva) {
        op.set_operand(k, ivb);
      } else if (op.operand(k) == ivb) {
        op.set_operand(k, iva);
      }
    }
  });
  return OkStatus();
}

}  // namespace everest::compiler
