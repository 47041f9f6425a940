#include "ir/printer.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace everest::ir {

namespace {

class Printer {
 public:
  std::string print_function(const Function& fn) {
    out_.clear();
    names_.clear();
    next_id_ = 0;
    emit_function(fn, 0);
    return out_;
  }

  std::string print_module(const Module& m) {
    out_ = "module @" + m.name();
    if (!m.attributes().empty()) {
      out_ += " attributes ";
      emit_attrs(m.attributes());
    }
    out_ += " {\n";
    for (const auto& fn : m) {
      names_.clear();
      next_id_ = 0;
      emit_function(*fn, 1);
    }
    out_ += "}\n";
    return out_;
  }

 private:
  void indent(int depth) { out_.append(static_cast<std::size_t>(depth) * 2, ' '); }

  std::string name_of(const Value& v) {
    const ValueKey key = key_of(v);
    auto it = names_.find(key);
    if (it != names_.end()) return it->second;
    const std::string name = "%" + std::to_string(next_id_++);
    names_.emplace(key, name);
    return name;
  }

  void bind_block_args(const Block& block, bool entry_style) {
    for (unsigned i = 0; i < block.num_args(); ++i) {
      const ValueKey key = ValueKey::block_arg(&block, i);
      if (entry_style) {
        names_.emplace(key, "%arg" + std::to_string(i));
      } else {
        names_.emplace(key, "%" + std::to_string(next_id_++));
      }
    }
  }

  void emit_attr(const Attribute& a) {
    switch (a.kind()) {
      case Attribute::Kind::kDenseF64: {
        out_ += "dense<";
        const auto& vals = a.as_dense_f64();
        for (std::size_t i = 0; i < vals.size(); ++i) {
          if (i) out_ += ", ";
          char buf[40];
          std::snprintf(buf, sizeof buf, "%.17g", vals[i]);
          std::string s(buf);
          if (std::isfinite(vals[i]) && s.find('.') == std::string::npos &&
              s.find('e') == std::string::npos) {
            s += ".0";
          }
          out_ += s;
        }
        out_ += '>';
        return;
      }
      case Attribute::Kind::kArray: {
        out_ += '[';
        const auto& items = a.as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (i) out_ += ", ";
          emit_attr(items[i]);
        }
        out_ += ']';
        return;
      }
      default:
        out_ += a.to_string();
    }
  }

  void emit_attrs(const AttrMap& attrs) {
    out_ += '{';
    bool first = true;
    for (const auto& [k, v] : attrs) {
      if (!first) out_ += ", ";
      first = false;
      out_ += k;
      if (!v.is_unit()) {
        out_ += " = ";
        emit_attr(v);
      }
    }
    out_ += '}';
  }

  void emit_op(const Operation& op, int depth) {
    indent(depth);
    // Results.
    for (unsigned r = 0; r < op.num_results(); ++r) {
      if (r) out_ += ", ";
      // const_cast is safe: result() only reads the op to build a handle.
      out_ += name_of(const_cast<Operation&>(op).result(r));
    }
    if (op.num_results() > 0) out_ += " = ";
    out_ += op.name();
    out_ += '(';
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      if (i) out_ += ", ";
      out_ += name_of(op.operand(i));
    }
    out_ += ')';
    if (!op.attributes().empty()) {
      out_ += ' ';
      emit_attrs(op.attributes());
    }
    // Type signature.
    out_ += " : (";
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      if (i) out_ += ", ";
      out_ += op.operand(i).type().to_string();
    }
    out_ += ") -> (";
    for (std::size_t r = 0; r < op.num_results(); ++r) {
      if (r) out_ += ", ";
      out_ += op.result_types()[r].to_string();
    }
    out_ += ')';
    // Regions.
    for (std::size_t r = 0; r < op.num_regions(); ++r) {
      out_ += " {\n";
      const Region& region = op.region(r);
      for (std::size_t b = 0; b < region.num_blocks(); ++b) {
        const Block& block = region.block(b);
        bind_block_args(block, /*entry_style=*/false);
        indent(depth + 1);
        out_ += '^';
        out_ += '(';
        for (unsigned a = 0; a < block.num_args(); ++a) {
          if (a) out_ += ", ";
          out_ += name_of(const_cast<Block&>(block).arg(a));
          out_ += ": ";
          out_ += block.arg_types()[a].to_string();
        }
        out_ += "):\n";
        for (const auto& nested : block) emit_op(*nested, depth + 2);
      }
      indent(depth);
      out_ += '}';
    }
    out_ += '\n';
  }

  void emit_function(const Function& fn, int depth) {
    indent(depth);
    out_ += "func @" + fn.name() + "(";
    const Block& entry = fn.entry();
    bind_block_args(entry, /*entry_style=*/true);
    for (unsigned i = 0; i < entry.num_args(); ++i) {
      if (i) out_ += ", ";
      out_ += "%arg" + std::to_string(i) + ": " +
              entry.arg_types()[i].to_string();
    }
    out_ += ") -> (";
    const auto& results = fn.result_types();
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i) out_ += ", ";
      out_ += results[i].to_string();
    }
    out_ += ')';
    if (!fn.attributes().empty()) {
      out_ += " attributes ";
      emit_attrs(fn.attributes());
    }
    out_ += " {\n";
    for (const auto& op : entry) emit_op(*op, depth + 1);
    indent(depth);
    out_ += "}\n";
  }

  std::string out_;
  std::map<ValueKey, std::string> names_;
  unsigned next_id_ = 0;
};

}  // namespace

std::string print(const Module& module) { return Printer().print_module(module); }
std::string print(const Function& function) {
  return Printer().print_function(function);
}

}  // namespace everest::ir
