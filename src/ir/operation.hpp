// Core IR object model: Value, Operation, Block, Region.
//
// Ownership: Region owns Blocks, Block owns Operations, Operation owns its
// nested Regions. Values are lightweight handles to either an operation
// result or a block argument; structural equality compares definition site.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/attribute.hpp"
#include "ir/type.hpp"

namespace everest::ir {

class Operation;
class Block;
class Region;

/// SSA value handle: an operation result or a block argument.
class Value {
 public:
  Value() = default;

  static Value op_result(Operation* op, unsigned index, Type type) {
    Value v;
    v.op_ = op;
    v.index_ = index;
    v.type_ = std::move(type);
    return v;
  }
  static Value block_arg(Block* block, unsigned index, Type type) {
    Value v;
    v.block_ = block;
    v.index_ = index;
    v.type_ = std::move(type);
    return v;
  }

  [[nodiscard]] bool valid() const { return op_ != nullptr || block_ != nullptr; }
  [[nodiscard]] bool is_op_result() const { return op_ != nullptr; }
  [[nodiscard]] bool is_block_arg() const { return block_ != nullptr; }
  [[nodiscard]] Operation* defining_op() const { return op_; }
  [[nodiscard]] Block* owner_block() const { return block_; }
  [[nodiscard]] unsigned index() const { return index_; }
  [[nodiscard]] const Type& type() const { return type_; }

  bool operator==(const Value& other) const {
    return op_ == other.op_ && block_ == other.block_ && index_ == other.index_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  Operation* op_ = nullptr;
  Block* block_ = nullptr;
  unsigned index_ = 0;
  Type type_;
};

/// A value's definition site as an ordered map key: the defining op and
/// result index, or the owning block and argument index offset by 2^30 so
/// that the two kinds never compare equal.
struct ValueKey {
  const void* def = nullptr;
  unsigned index = 0;

  static ValueKey block_arg(const Block* block, unsigned i) {
    return {block, i + (1u << 30)};
  }
  bool operator<(const ValueKey& other) const {
    return def != other.def ? def < other.def : index < other.index;
  }
};

inline ValueKey key_of(const Value& v) {
  return v.is_op_result() ? ValueKey{v.defining_op(), v.index()}
                          : ValueKey::block_arg(v.owner_block(), v.index());
}

/// A region: an ordered list of blocks owned by an operation (or function).
class Region {
 public:
  Region() = default;
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  Block& emplace_block(std::vector<Type> arg_types = {});
  [[nodiscard]] bool empty() const { return blocks_.empty(); }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }
  [[nodiscard]] Block& front() { return *blocks_.front(); }
  [[nodiscard]] const Block& front() const { return *blocks_.front(); }
  [[nodiscard]] Block& block(std::size_t i) { return *blocks_[i]; }
  [[nodiscard]] const Block& block(std::size_t i) const { return *blocks_[i]; }

  auto begin() { return blocks_.begin(); }
  auto end() { return blocks_.end(); }
  [[nodiscard]] auto begin() const { return blocks_.begin(); }
  [[nodiscard]] auto end() const { return blocks_.end(); }

 private:
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// A basic block: typed arguments plus an ordered operation list.
class Block {
 public:
  explicit Block(std::vector<Type> arg_types = {})
      : arg_types_(std::move(arg_types)) {}
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  [[nodiscard]] std::size_t num_args() const { return arg_types_.size(); }
  [[nodiscard]] Value arg(unsigned i) {
    assert(i < arg_types_.size());
    return Value::block_arg(this, i, arg_types_[i]);
  }
  [[nodiscard]] const std::vector<Type>& arg_types() const { return arg_types_; }

  /// Appends a new operation; returns a reference owned by this block.
  Operation& append(std::unique_ptr<Operation> op);
  /// Inserts before the operation at `index`.
  Operation& insert(std::size_t index, std::unique_ptr<Operation> op);
  /// Removes (destroys) the operation at `index`.
  void erase(std::size_t index);
  /// Removes and returns the operation at `index` without destroying it.
  std::unique_ptr<Operation> take(std::size_t index);
  /// Index of `op` within this block (SIZE_MAX if absent).
  [[nodiscard]] std::size_t index_of(const Operation* op) const;

  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }
  [[nodiscard]] Operation& op(std::size_t i) { return *ops_[i]; }
  [[nodiscard]] const Operation& op(std::size_t i) const { return *ops_[i]; }
  [[nodiscard]] Operation& back() { return *ops_.back(); }
  [[nodiscard]] const Operation& back() const { return *ops_.back(); }

  auto begin() { return ops_.begin(); }
  auto end() { return ops_.end(); }
  [[nodiscard]] auto begin() const { return ops_.begin(); }
  [[nodiscard]] auto end() const { return ops_.end(); }

 private:
  std::vector<Type> arg_types_;
  std::vector<std::unique_ptr<Operation>> ops_;
};

/// A generic operation: "<dialect>.<mnemonic>" with operands, typed
/// results, attributes, and nested regions.
class Operation {
 public:
  Operation(std::string name, std::vector<Value> operands,
            std::vector<Type> result_types, AttrMap attributes = {})
      : name_(std::move(name)),
        operands_(std::move(operands)),
        result_types_(std::move(result_types)),
        attributes_(std::move(attributes)) {}
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Dialect prefix, e.g. "tensor" for "tensor.matmul".
  [[nodiscard]] std::string_view dialect() const {
    const auto dot = name_.find('.');
    return std::string_view(name_).substr(0, dot);
  }

  [[nodiscard]] std::size_t num_operands() const { return operands_.size(); }
  [[nodiscard]] const Value& operand(std::size_t i) const { return operands_[i]; }
  [[nodiscard]] const std::vector<Value>& operands() const { return operands_; }
  void set_operand(std::size_t i, Value v) { operands_[i] = std::move(v); }
  void set_operands(std::vector<Value> operands) { operands_ = std::move(operands); }

  [[nodiscard]] std::size_t num_results() const { return result_types_.size(); }
  [[nodiscard]] Value result(unsigned i = 0) {
    assert(i < result_types_.size());
    return Value::op_result(this, i, result_types_[i]);
  }
  [[nodiscard]] const std::vector<Type>& result_types() const { return result_types_; }

  [[nodiscard]] const AttrMap& attributes() const { return attributes_; }
  [[nodiscard]] AttrMap& attributes() { return attributes_; }
  [[nodiscard]] bool has_attr(const std::string& key) const {
    return attributes_.count(key) > 0;
  }
  [[nodiscard]] const Attribute* attr(const std::string& key) const {
    auto it = attributes_.find(key);
    return it == attributes_.end() ? nullptr : &it->second;
  }
  void set_attr(std::string key, Attribute value) {
    attributes_[std::move(key)] = std::move(value);
  }
  /// Int-attribute convenience with default.
  [[nodiscard]] std::int64_t int_attr(const std::string& key,
                                      std::int64_t fallback = 0) const {
    const Attribute* a = attr(key);
    return a && a->is_int() ? a->as_int() : fallback;
  }
  [[nodiscard]] std::string str_attr(const std::string& key,
                                     std::string fallback = {}) const {
    const Attribute* a = attr(key);
    return a && a->is_string() ? a->as_string() : std::move(fallback);
  }
  [[nodiscard]] double double_attr(const std::string& key,
                                   double fallback = 0.0) const {
    const Attribute* a = attr(key);
    if (!a) return fallback;
    if (a->is_double()) return a->as_double();
    if (a->is_int()) return static_cast<double>(a->as_int());
    return fallback;
  }

  [[nodiscard]] std::size_t num_regions() const { return regions_.size(); }
  Region& emplace_region() {
    regions_.push_back(std::make_unique<Region>());
    return *regions_.back();
  }
  [[nodiscard]] Region& region(std::size_t i = 0) { return *regions_[i]; }
  [[nodiscard]] const Region& region(std::size_t i = 0) const { return *regions_[i]; }

  [[nodiscard]] Block* parent() const { return parent_; }
  void set_parent(Block* b) { parent_ = b; }

  /// Depth-first walk over this op and all nested ops (pre-order).
  void walk(const std::function<void(Operation&)>& fn);

 private:
  std::string name_;
  std::vector<Value> operands_;
  std::vector<Type> result_types_;
  AttrMap attributes_;
  std::vector<std::unique_ptr<Region>> regions_;
  Block* parent_ = nullptr;
};

/// Replaces every use of `from` with `to` inside `block` (recursing into
/// nested regions). Returns the number of uses rewritten.
std::size_t replace_all_uses(Block& block, const Value& from, const Value& to);

}  // namespace everest::ir
