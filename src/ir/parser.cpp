#include "ir/parser.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <map>

namespace everest::ir {

namespace {

/// Deepest nesting parse_module() accepts, counted separately for op
/// regions and for attribute arrays. The parser recurses once per level, so
/// the cap bounds its stack use whatever the input; the compiler's own
/// modules nest a handful of loops deep.
constexpr int kMaxNestingDepth = 512;

enum class Tok {
  kEnd, kIdent, kValueId, kSymbol, kCaret, kLParen, kRParen, kLBrace,
  kRBrace, kLBracket, kRBracket, kLess, kGreater, kColon, kComma, kEqual,
  kArrow, kNumber, kString,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  double number = 0.0;
  bool is_integer = false;
  /// An integer literal's exact value, and whether it overflowed int64.
  std::int64_t integer = 0;
  bool integer_overflow = false;
  std::size_t offset = 0;
};

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '-';
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[nodiscard]] std::size_t offset() const { return current_.offset; }

 private:
  void advance() {
    skip_ws();
    current_ = Token{};
    current_.offset = pos_;
    if (pos_ >= text_.size()) return;
    const char c = text_[pos_];
    if (c == '%') {
      ++pos_;
      current_.kind = Tok::kValueId;
      current_.text = "%" + lex_word();
      return;
    }
    if (c == '@') {
      ++pos_;
      current_.kind = Tok::kSymbol;
      current_.text = lex_word();
      return;
    }
    if (c == '^') { ++pos_; current_.kind = Tok::kCaret; return; }
    if (c == '(') { ++pos_; current_.kind = Tok::kLParen; return; }
    if (c == ')') { ++pos_; current_.kind = Tok::kRParen; return; }
    if (c == '{') { ++pos_; current_.kind = Tok::kLBrace; return; }
    if (c == '}') { ++pos_; current_.kind = Tok::kRBrace; return; }
    if (c == '[') { ++pos_; current_.kind = Tok::kLBracket; return; }
    if (c == ']') { ++pos_; current_.kind = Tok::kRBracket; return; }
    if (c == '<') { ++pos_; current_.kind = Tok::kLess; return; }
    if (c == '>') { ++pos_; current_.kind = Tok::kGreater; return; }
    if (c == ':') { ++pos_; current_.kind = Tok::kColon; return; }
    if (c == ',') { ++pos_; current_.kind = Tok::kComma; return; }
    if (c == '=') { ++pos_; current_.kind = Tok::kEqual; return; }
    if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
      pos_ += 2;
      current_.kind = Tok::kArrow;
      return;
    }
    if (c == '"') {
      ++pos_;
      current_.kind = Tok::kString;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
        current_.text += text_[pos_++];
      }
      if (pos_ < text_.size()) ++pos_;  // closing quote
      return;
    }
    if ((c == '-' || c == 'i' || c == 'n') && lex_non_finite()) return;
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      lex_number();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      current_.kind = Tok::kIdent;
      current_.text = lex_word();
      return;
    }
    ++pos_;  // skip unknown char; will surface as a parse error
  }

  std::string lex_word() {
    std::string out;
    while (pos_ < text_.size() && is_word_char(text_[pos_])) {
      out += text_[pos_++];
    }
    return out;
  }

  /// `inf`, `-inf`, `nan` or `-nan` as a whole word: how the printer
  /// (printf's %g) spells a non-finite f64. Lexes it as a real number.
  bool lex_non_finite() {
    const bool negative = text_[pos_] == '-';
    const std::size_t word = pos_ + (negative ? 1 : 0);
    const std::string_view name = text_.substr(word, 3);
    const std::size_t end = word + name.size();
    if ((name != "inf" && name != "nan") ||
        (end < text_.size() && is_word_char(text_[end]))) {
      return false;
    }
    current_.kind = Tok::kNumber;
    current_.text = std::string(text_.substr(pos_, end - pos_));
    current_.number = name == "inf" ? std::numeric_limits<double>::infinity()
                                    : std::numeric_limits<double>::quiet_NaN();
    if (negative) current_.number = -current_.number;
    pos_ = end;
    return true;
  }

  void lex_number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    bool has_dot = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        has_dot = true;
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+') &&
            (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    current_.kind = Tok::kNumber;
    current_.text = std::string(text_.substr(start, pos_ - start));
    current_.is_integer = !has_dot;
    const char* end = text_.data() + pos_;
    std::from_chars(text_.data() + start, end, current_.number);
    if (current_.is_integer) {
      // Exact, so every int64 survives a round trip; one outside int64 is
      // flagged for the parser to refuse instead of cast.
      current_.integer_overflow =
          std::from_chars(text_.data() + start, end, current_.integer).ec ==
          std::errc::result_out_of_range;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

class IrParser {
 public:
  explicit IrParser(std::string_view text) : lexer_(text) {}

  Result<std::unique_ptr<Module>> parse() {
    EVEREST_RETURN_IF_ERROR(expect_ident("module"));
    if (lexer_.peek().kind != Tok::kSymbol) return error("expected @name");
    auto module = std::make_unique<Module>(lexer_.take().text);
    if (lexer_.peek().kind == Tok::kIdent && lexer_.peek().text == "attributes") {
      lexer_.take();
      EVEREST_ASSIGN_OR_RETURN(module->attributes(), parse_attr_dict());
    }
    EVEREST_RETURN_IF_ERROR(expect(Tok::kLBrace, "{"));
    while (lexer_.peek().kind == Tok::kIdent && lexer_.peek().text == "func") {
      EVEREST_RETURN_IF_ERROR(parse_function(*module));
    }
    EVEREST_RETURN_IF_ERROR(expect(Tok::kRBrace, "}"));
    return module;
  }

  Result<Type> parse_type_standalone() { return parse_type(); }

 private:
  Status error(const std::string& what) const {
    return InvalidArgument("IR parse error at offset " +
                           std::to_string(lexer_.offset()) + ": " + what);
  }

  Status expect(Tok kind, const char* what) {
    if (lexer_.peek().kind != kind) {
      return error(std::string("expected '") + what + "'");
    }
    lexer_.take();
    return OkStatus();
  }

  Status expect_ident(const std::string& word) {
    if (lexer_.peek().kind != Tok::kIdent || lexer_.peek().text != word) {
      return error("expected '" + word + "'");
    }
    lexer_.take();
    return OkStatus();
  }

  Result<Type> parse_type() {
    if (lexer_.peek().kind != Tok::kIdent) return error("expected a type");
    const std::string head = lexer_.take().text;
    if (head == "f32") return Type::f32();
    if (head == "f64") return Type::f64();
    if (head == "i1") return Type::i1();
    if (head == "i8") return Type::scalar(ScalarKind::kI8);
    if (head == "i16") return Type::scalar(ScalarKind::kI16);
    if (head == "i32") return Type::i32();
    if (head == "i64") return Type::i64();
    if (head == "index") return Type::index();
    if (head == "tensor" || head == "memref") {
      EVEREST_RETURN_IF_ERROR(expect(Tok::kLess, "<"));
      std::vector<std::int64_t> shape;
      ScalarKind elem = ScalarKind::kF64;
      // Dims and element type arrive as "4x8xf64" word-chunks or numbers.
      while (true) {
        const Token& t = lexer_.peek();
        if (t.kind == Tok::kNumber) {
          const Token dim = lexer_.take();
          if (!dim.is_integer || dim.integer_overflow) {
            return error("bad dimension '" + dim.text + "'");
          }
          shape.push_back(dim.integer);
        } else if (t.kind == Tok::kIdent) {
          // e.g. "x8xf64" or "xf64" or "f64"
          EVEREST_ASSIGN_OR_RETURN(elem, consume_dims_and_elem(shape));
          break;
        } else {
          return error("bad shaped type");
        }
      }
      MemorySpace space = MemorySpace::kDefault;
      if (lexer_.peek().kind == Tok::kComma) {
        lexer_.take();
        if (lexer_.peek().kind != Tok::kIdent) return error("bad memory space");
        const std::string s = lexer_.take().text;
        if (s == "host") space = MemorySpace::kDefault;
        else if (s == "device") space = MemorySpace::kDevice;
        else if (s == "onchip") space = MemorySpace::kOnChip;
        else return error("unknown memory space '" + s + "'");
      }
      EVEREST_RETURN_IF_ERROR(expect(Tok::kGreater, ">"));
      if (head == "tensor") return Type::tensor(std::move(shape), elem);
      return Type::memref(std::move(shape), elem, space);
    }
    if (head == "stream") {
      EVEREST_RETURN_IF_ERROR(expect(Tok::kLess, "<"));
      std::vector<std::int64_t> none;
      ScalarKind elem = ScalarKind::kF64;
      EVEREST_ASSIGN_OR_RETURN(elem, consume_dims_and_elem(none));
      if (!none.empty()) return error("stream takes no shape");
      EVEREST_RETURN_IF_ERROR(expect(Tok::kGreater, ">"));
      return Type::stream(elem);
    }
    return error("unknown type '" + head + "'");
  }

  /// Parses chunks like "x8xf64" / "f64" accumulating dims, returns elem.
  Result<ScalarKind> consume_dims_and_elem(std::vector<std::int64_t>& shape) {
    std::string text = lexer_.take().text;
    std::size_t i = 0;
    while (i < text.size()) {
      if (text[i] == 'x') {
        ++i;
        if (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
          std::int64_t dim = 0;
          const auto [next, ec] =
              std::from_chars(text.data() + i, text.data() + text.size(), dim);
          if (ec != std::errc()) return error("dimension outside int64");
          i = static_cast<std::size_t>(next - text.data());
          shape.push_back(dim);
          continue;
        }
        continue;  // 'x' followed by the element type
      }
      // Remaining text is the element type name.
      const std::string elem_name = text.substr(i);
      if (elem_name == "f32") return ScalarKind::kF32;
      if (elem_name == "f64") return ScalarKind::kF64;
      if (elem_name == "i1") return ScalarKind::kI1;
      if (elem_name == "i8") return ScalarKind::kI8;
      if (elem_name == "i16") return ScalarKind::kI16;
      if (elem_name == "i32") return ScalarKind::kI32;
      if (elem_name == "i64") return ScalarKind::kI64;
      if (elem_name == "index") return ScalarKind::kIndex;
      return error("unknown element type '" + elem_name + "'");
    }
    return error("missing element type");
  }

  /// `depth` counts the attribute arrays enclosing this value.
  Result<Attribute> parse_attr_value(int depth) {
    const Token& t = lexer_.peek();
    if (t.kind == Tok::kNumber) {
      Token n = lexer_.take();
      if (n.is_integer) {
        if (n.integer_overflow) {
          return error("integer " + n.text + " outside int64");
        }
        return Attribute::integer(n.integer);
      }
      return Attribute::real(n.number);
    }
    if (t.kind == Tok::kString) return Attribute::string(lexer_.take().text);
    if (t.kind == Tok::kLBracket) {
      if (depth >= kMaxNestingDepth) {
        return error("attribute arrays nest deeper than " +
                     std::to_string(kMaxNestingDepth));
      }
      lexer_.take();
      std::vector<Attribute> items;
      if (lexer_.peek().kind == Tok::kRBracket) {
        lexer_.take();
        return Attribute::array(std::move(items));
      }
      while (true) {
        EVEREST_ASSIGN_OR_RETURN(Attribute a, parse_attr_value(depth + 1));
        items.push_back(std::move(a));
        if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
        EVEREST_RETURN_IF_ERROR(expect(Tok::kRBracket, "]"));
        return Attribute::array(std::move(items));
      }
    }
    if (t.kind == Tok::kIdent) {
      if (t.text == "true") { lexer_.take(); return Attribute::boolean(true); }
      if (t.text == "false") { lexer_.take(); return Attribute::boolean(false); }
      if (t.text == "unit") { lexer_.take(); return Attribute::unit(); }
      if (t.text == "dense") {
        lexer_.take();
        EVEREST_RETURN_IF_ERROR(expect(Tok::kLess, "<"));
        std::vector<double> values;
        if (lexer_.peek().kind != Tok::kGreater) {
          while (true) {
            if (lexer_.peek().kind != Tok::kNumber) return error("bad dense");
            values.push_back(lexer_.take().number);
            if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
            break;
          }
        }
        EVEREST_RETURN_IF_ERROR(expect(Tok::kGreater, ">"));
        return Attribute::dense_f64(std::move(values));
      }
      // Otherwise it must be a type.
      EVEREST_ASSIGN_OR_RETURN(Type type, parse_type());
      return Attribute::type(std::move(type));
    }
    return error("expected an attribute value");
  }

  Result<AttrMap> parse_attr_dict() {
    EVEREST_RETURN_IF_ERROR(expect(Tok::kLBrace, "{"));
    AttrMap attrs;
    if (lexer_.peek().kind == Tok::kRBrace) {
      lexer_.take();
      return attrs;
    }
    while (true) {
      if (lexer_.peek().kind != Tok::kIdent) return error("expected attr name");
      const std::string key = lexer_.take().text;
      if (lexer_.peek().kind == Tok::kEqual) {
        lexer_.take();
        EVEREST_ASSIGN_OR_RETURN(Attribute v, parse_attr_value(0));
        attrs.emplace(key, std::move(v));
      } else {
        attrs.emplace(key, Attribute::unit());
      }
      if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
      EVEREST_RETURN_IF_ERROR(expect(Tok::kRBrace, "}"));
      return attrs;
    }
  }

  Status parse_function(Module& module) {
    EVEREST_RETURN_IF_ERROR(expect_ident("func"));
    if (lexer_.peek().kind != Tok::kSymbol) return error("expected @name");
    const std::string name = lexer_.take().text;
    EVEREST_RETURN_IF_ERROR(expect(Tok::kLParen, "("));
    std::vector<Type> inputs;
    std::vector<std::string> arg_names;
    if (lexer_.peek().kind != Tok::kRParen) {
      while (true) {
        if (lexer_.peek().kind != Tok::kValueId) return error("expected %arg");
        arg_names.push_back(lexer_.take().text);
        EVEREST_RETURN_IF_ERROR(expect(Tok::kColon, ":"));
        EVEREST_ASSIGN_OR_RETURN(Type t, parse_type());
        inputs.push_back(std::move(t));
        if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
        break;
      }
    }
    EVEREST_RETURN_IF_ERROR(expect(Tok::kRParen, ")"));
    EVEREST_RETURN_IF_ERROR(expect(Tok::kArrow, "->"));
    EVEREST_ASSIGN_OR_RETURN(std::vector<Type> results, parse_type_list());
    AttrMap fn_attrs;
    if (lexer_.peek().kind == Tok::kIdent && lexer_.peek().text == "attributes") {
      lexer_.take();
      EVEREST_ASSIGN_OR_RETURN(fn_attrs, parse_attr_dict());
    }
    auto fn_or = module.add_function(
        name, Type::function(std::move(inputs), std::move(results)));
    if (!fn_or.ok()) return fn_or.status();
    Function* fn = fn_or.value();
    fn->attributes() = std::move(fn_attrs);

    values_.clear();
    for (unsigned i = 0; i < fn->entry().num_args(); ++i) {
      values_[arg_names[i]] = fn->entry().arg(i);
    }
    EVEREST_RETURN_IF_ERROR(expect(Tok::kLBrace, "{"));
    while (lexer_.peek().kind != Tok::kRBrace) {
      EVEREST_RETURN_IF_ERROR(parse_op(fn->entry(), 0));
    }
    lexer_.take();  // }
    return OkStatus();
  }

  Result<std::vector<Type>> parse_type_list() {
    EVEREST_RETURN_IF_ERROR(expect(Tok::kLParen, "("));
    std::vector<Type> types;
    if (lexer_.peek().kind == Tok::kRParen) {
      lexer_.take();
      return types;
    }
    while (true) {
      EVEREST_ASSIGN_OR_RETURN(Type t, parse_type());
      types.push_back(std::move(t));
      if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
      EVEREST_RETURN_IF_ERROR(expect(Tok::kRParen, ")"));
      return types;
    }
  }

  /// `depth` counts the op regions enclosing this op.
  Status parse_op(Block& block, int depth) {
    // Optional result list: "%0, %1 = "
    std::vector<std::string> result_names;
    if (lexer_.peek().kind == Tok::kValueId) {
      while (lexer_.peek().kind == Tok::kValueId) {
        result_names.push_back(lexer_.take().text);
        if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
        break;
      }
      EVEREST_RETURN_IF_ERROR(expect(Tok::kEqual, "="));
    }
    if (lexer_.peek().kind != Tok::kIdent) return error("expected op name");
    const std::string op_name = lexer_.take().text;
    EVEREST_RETURN_IF_ERROR(expect(Tok::kLParen, "("));
    std::vector<Value> operands;
    if (lexer_.peek().kind != Tok::kRParen) {
      while (true) {
        if (lexer_.peek().kind != Tok::kValueId) return error("expected %value");
        const std::string vname = lexer_.take().text;
        auto it = values_.find(vname);
        if (it == values_.end()) return error("unknown value " + vname);
        operands.push_back(it->second);
        if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
        break;
      }
    }
    EVEREST_RETURN_IF_ERROR(expect(Tok::kRParen, ")"));
    AttrMap attrs;
    if (lexer_.peek().kind == Tok::kLBrace) {
      EVEREST_ASSIGN_OR_RETURN(attrs, parse_attr_dict());
    }
    EVEREST_RETURN_IF_ERROR(expect(Tok::kColon, ":"));
    EVEREST_ASSIGN_OR_RETURN(std::vector<Type> operand_types, parse_type_list());
    EVEREST_RETURN_IF_ERROR(expect(Tok::kArrow, "->"));
    EVEREST_ASSIGN_OR_RETURN(std::vector<Type> result_types, parse_type_list());
    if (operand_types.size() != operands.size()) {
      return error("operand type count mismatch");
    }
    if (result_types.size() != result_names.size()) {
      return error("result name/type count mismatch");
    }
    Operation& op = block.append(std::make_unique<Operation>(
        op_name, std::move(operands), std::move(result_types),
        std::move(attrs)));
    for (unsigned r = 0; r < op.num_results(); ++r) {
      values_[result_names[r]] = op.result(r);
    }
    // Optional regions.
    while (lexer_.peek().kind == Tok::kLBrace) {
      if (depth >= kMaxNestingDepth) {
        return error("regions nest deeper than " +
                     std::to_string(kMaxNestingDepth));
      }
      lexer_.take();
      Region& region = op.emplace_region();
      while (lexer_.peek().kind == Tok::kCaret) {
        lexer_.take();
        EVEREST_RETURN_IF_ERROR(expect(Tok::kLParen, "("));
        std::vector<std::string> arg_names;
        std::vector<Type> arg_types;
        if (lexer_.peek().kind != Tok::kRParen) {
          while (true) {
            if (lexer_.peek().kind != Tok::kValueId) return error("expected %arg");
            arg_names.push_back(lexer_.take().text);
            EVEREST_RETURN_IF_ERROR(expect(Tok::kColon, ":"));
            EVEREST_ASSIGN_OR_RETURN(Type t, parse_type());
            arg_types.push_back(std::move(t));
            if (lexer_.peek().kind == Tok::kComma) { lexer_.take(); continue; }
            break;
          }
        }
        EVEREST_RETURN_IF_ERROR(expect(Tok::kRParen, ")"));
        EVEREST_RETURN_IF_ERROR(expect(Tok::kColon, ":"));
        Block& nested = region.emplace_block(std::move(arg_types));
        for (unsigned a = 0; a < nested.num_args(); ++a) {
          values_[arg_names[a]] = nested.arg(a);
        }
        while (lexer_.peek().kind != Tok::kRBrace &&
               lexer_.peek().kind != Tok::kCaret) {
          EVEREST_RETURN_IF_ERROR(parse_op(nested, depth + 1));
        }
      }
      EVEREST_RETURN_IF_ERROR(expect(Tok::kRBrace, "}"));
    }
    return OkStatus();
  }

  Lexer lexer_;
  std::map<std::string, Value> values_;
};

}  // namespace

Result<std::unique_ptr<Module>> parse_module(std::string_view text) {
  return IrParser(text).parse();
}

Result<Type> parse_type(std::string_view text) {
  return IrParser(text).parse_type_standalone();
}

}  // namespace everest::ir
