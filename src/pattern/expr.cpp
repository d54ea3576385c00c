#include "pattern/expr.hpp"

#include <cctype>
#include <optional>

#include "util/error.hpp"

namespace wasp::pattern {

void Env::set(const std::string& name, std::int64_t value) {
  for (auto& [k, v] : vars_) {
    if (k == name) {
      v = value;
      return;
    }
  }
  vars_.emplace_back(name, value);
}

const std::int64_t* Env::find(const std::string& name) const {
  for (const auto& [k, v] : vars_) {
    if (k == name) return &v;
  }
  return nullptr;
}

namespace detail {

enum class BinOp : std::uint8_t {
  kOr, kAnd, kEq, kNe, kLt, kLe, kGt, kGe, kAdd, kSub, kMul, kDiv, kMod,
};

enum class Fn : std::uint8_t { kMax, kMin, kCeilDiv };

struct ExprNode {
  enum class Kind : std::uint8_t { kLit, kVar, kNeg, kBin, kCall, kSizeOf };
  Kind kind = Kind::kLit;
  std::int64_t lit = 0;
  std::string name;  ///< variable name (kVar)
  std::optional<PathTemplate> path;  ///< size_of()'s template (kSizeOf)
  BinOp op = BinOp::kAdd;
  Fn fn = Fn::kMax;
  std::shared_ptr<const ExprNode> a, b;
};

}  // namespace detail

namespace {

using detail::BinOp;
using detail::ExprNode;
using detail::Fn;
using NodePtr = std::shared_ptr<const ExprNode>;

[[noreturn]] void fail(const std::string& text, const std::string& what) {
  throw util::SimError("pattern expression error: " + what + " in \"" + text +
                       "\"");
}

struct Token {
  enum class Kind : std::uint8_t { kNum, kIdent, kString, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::int64_t num = 0;
  std::string text;  ///< identifier / string body / punctuation
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) { advance(); }

  const Token& cur() const noexcept { return cur_; }

  void advance() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= src_.size()) {
      cur_ = Token{Token::Kind::kEnd, 0, ""};
      return;
    }
    const char c = src_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t v = 0;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        v = v * 10 + (src_[pos_] - '0');
        ++pos_;
      }
      cur_ = Token{Token::Kind::kNum, v, ""};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        ++pos_;
      }
      cur_ = Token{Token::Kind::kIdent, 0, src_.substr(start, pos_ - start)};
      return;
    }
    if (c == '"') {
      ++pos_;
      std::string body;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        body += src_[pos_++];
      }
      if (pos_ >= src_.size()) fail(src_, "unterminated string");
      ++pos_;  // closing quote
      cur_ = Token{Token::Kind::kString, 0, std::move(body)};
      return;
    }
    // Two-character operators first.
    static const char* kTwo[] = {"==", "!=", "<=", ">=", "&&", "||"};
    for (const char* t : kTwo) {
      if (src_.compare(pos_, 2, t) == 0) {
        pos_ += 2;
        cur_ = Token{Token::Kind::kPunct, 0, t};
        return;
      }
    }
    static const std::string kOne = "+-*/%()<>,";
    if (kOne.find(c) != std::string::npos) {
      ++pos_;
      cur_ = Token{Token::Kind::kPunct, 0, std::string(1, c)};
      return;
    }
    fail(src_, std::string("unexpected character '") + c + "'");
  }

  const std::string& src() const noexcept { return src_; }

 private:
  const std::string& src_;
  std::size_t pos_ = 0;
  Token cur_;
};

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src) {}

  NodePtr parse() {
    NodePtr e = parse_or();
    if (lex_.cur().kind != Token::Kind::kEnd) {
      fail(lex_.src(), "trailing input");
    }
    return e;
  }

 private:
  bool eat_punct(const char* p) {
    if (lex_.cur().kind == Token::Kind::kPunct && lex_.cur().text == p) {
      lex_.advance();
      return true;
    }
    return false;
  }

  void expect_punct(const char* p) {
    if (!eat_punct(p)) fail(lex_.src(), std::string("expected '") + p + "'");
  }

  static NodePtr bin(BinOp op, NodePtr a, NodePtr b) {
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprNode::Kind::kBin;
    n->op = op;
    n->a = std::move(a);
    n->b = std::move(b);
    return n;
  }

  NodePtr parse_or() {
    NodePtr e = parse_and();
    while (eat_punct("||")) e = bin(BinOp::kOr, e, parse_and());
    return e;
  }

  NodePtr parse_and() {
    NodePtr e = parse_cmp();
    while (eat_punct("&&")) e = bin(BinOp::kAnd, e, parse_cmp());
    return e;
  }

  NodePtr parse_cmp() {
    NodePtr e = parse_add();
    static const std::pair<const char*, BinOp> kCmps[] = {
        {"==", BinOp::kEq}, {"!=", BinOp::kNe}, {"<=", BinOp::kLe},
        {">=", BinOp::kGe}, {"<", BinOp::kLt},  {">", BinOp::kGt},
    };
    for (const auto& [p, op] : kCmps) {
      if (eat_punct(p)) return bin(op, e, parse_add());
    }
    return e;
  }

  NodePtr parse_add() {
    NodePtr e = parse_mul();
    for (;;) {
      if (eat_punct("+")) {
        e = bin(BinOp::kAdd, e, parse_mul());
      } else if (eat_punct("-")) {
        e = bin(BinOp::kSub, e, parse_mul());
      } else {
        return e;
      }
    }
  }

  NodePtr parse_mul() {
    NodePtr e = parse_unary();
    for (;;) {
      if (eat_punct("*")) {
        e = bin(BinOp::kMul, e, parse_unary());
      } else if (eat_punct("/")) {
        e = bin(BinOp::kDiv, e, parse_unary());
      } else if (eat_punct("%")) {
        e = bin(BinOp::kMod, e, parse_unary());
      } else {
        return e;
      }
    }
  }

  NodePtr parse_unary() {
    if (eat_punct("-")) {
      auto n = std::make_shared<ExprNode>();
      n->kind = ExprNode::Kind::kNeg;
      n->a = parse_unary();
      return n;
    }
    return parse_primary();
  }

  NodePtr parse_primary() {
    const Token t = lex_.cur();
    if (t.kind == Token::Kind::kNum) {
      lex_.advance();
      auto n = std::make_shared<ExprNode>();
      n->kind = ExprNode::Kind::kLit;
      n->lit = t.num;
      return n;
    }
    if (t.kind == Token::Kind::kIdent) {
      lex_.advance();
      if (t.text == "size_of") {
        expect_punct("(");
        if (lex_.cur().kind != Token::Kind::kString) {
          fail(lex_.src(), "size_of() expects a quoted path template");
        }
        auto n = std::make_shared<ExprNode>();
        n->kind = ExprNode::Kind::kSizeOf;
        n->path.emplace(lex_.cur().text);
        lex_.advance();
        expect_punct(")");
        return n;
      }
      if (t.text == "max" || t.text == "min" || t.text == "ceil_div") {
        auto n = std::make_shared<ExprNode>();
        n->kind = ExprNode::Kind::kCall;
        n->fn = t.text == "max"   ? Fn::kMax
                : t.text == "min" ? Fn::kMin
                                  : Fn::kCeilDiv;
        expect_punct("(");
        n->a = parse_or();
        expect_punct(",");
        n->b = parse_or();
        expect_punct(")");
        return n;
      }
      auto n = std::make_shared<ExprNode>();
      n->kind = ExprNode::Kind::kVar;
      n->name = t.text;
      return n;
    }
    if (eat_punct("(")) {
      NodePtr e = parse_or();
      expect_punct(")");
      return e;
    }
    fail(lex_.src(), "expected a value");
  }

  Lexer lex_;
};

std::int64_t eval_node(const ExprNode& n, const EvalContext& ctx,
                       const std::string& text) {
  switch (n.kind) {
    case ExprNode::Kind::kLit:
      return n.lit;
    case ExprNode::Kind::kVar: {
      const std::int64_t* v =
          ctx.env != nullptr ? ctx.env->find(n.name) : nullptr;
      if (v == nullptr) fail(text, "unknown variable '" + n.name + "'");
      return *v;
    }
    case ExprNode::Kind::kNeg:
      return -eval_node(*n.a, ctx, text);
    case ExprNode::Kind::kSizeOf: {
      if (!ctx.size_of) fail(text, "size_of() has no provider here");
      return ctx.size_of(n.path->expand(ctx));
    }
    case ExprNode::Kind::kCall: {
      const std::int64_t a = eval_node(*n.a, ctx, text);
      const std::int64_t b = eval_node(*n.b, ctx, text);
      switch (n.fn) {
        case Fn::kMax:
          return a > b ? a : b;
        case Fn::kMin:
          return a < b ? a : b;
        case Fn::kCeilDiv:
          if (b == 0) fail(text, "ceil_div by zero");
          return (a + b - 1) / b;
      }
      fail(text, "bad call");
    }
    case ExprNode::Kind::kBin: {
      if (n.op == BinOp::kAnd) {
        return eval_node(*n.a, ctx, text) != 0 &&
                       eval_node(*n.b, ctx, text) != 0
                   ? 1
                   : 0;
      }
      if (n.op == BinOp::kOr) {
        return eval_node(*n.a, ctx, text) != 0 ||
                       eval_node(*n.b, ctx, text) != 0
                   ? 1
                   : 0;
      }
      const std::int64_t a = eval_node(*n.a, ctx, text);
      const std::int64_t b = eval_node(*n.b, ctx, text);
      switch (n.op) {
        case BinOp::kEq:
          return a == b ? 1 : 0;
        case BinOp::kNe:
          return a != b ? 1 : 0;
        case BinOp::kLt:
          return a < b ? 1 : 0;
        case BinOp::kLe:
          return a <= b ? 1 : 0;
        case BinOp::kGt:
          return a > b ? 1 : 0;
        case BinOp::kGe:
          return a >= b ? 1 : 0;
        case BinOp::kAdd:
          return a + b;
        case BinOp::kSub:
          return a - b;
        case BinOp::kMul:
          return a * b;
        case BinOp::kDiv:
          if (b == 0) fail(text, "division by zero");
          return a / b;
        case BinOp::kMod:
          if (b == 0) fail(text, "modulo by zero");
          return a % b;
        case BinOp::kAnd:
        case BinOp::kOr:
          break;
      }
      fail(text, "bad operator");
    }
  }
  fail(text, "bad node");
}

}  // namespace

Expr::Expr(std::string text) : text_(std::move(text)) {
  ast_ = Parser(text_).parse();
}

Expr Expr::lit(std::int64_t v) { return Expr(std::to_string(v)); }

std::int64_t Expr::eval(const EvalContext& ctx) const {
  WASP_CHECK_MSG(ast_ != nullptr, "evaluating an empty pattern expression");
  return eval_node(*ast_, ctx, text_);
}

PathTemplate::PathTemplate(const std::string& tmpl)
    : size_hint_(tmpl.size()) {
  try {
    std::string lit;
    std::size_t i = 0;
    while (i < tmpl.size()) {
      const char c = tmpl[i];
      if (c != '{') {
        WASP_CHECK_MSG(c != '}', "unmatched '}' in path template: " + tmpl);
        lit += c;
        ++i;
        continue;
      }
      const std::size_t close = tmpl.find('}', i + 1);
      WASP_CHECK_MSG(close != std::string::npos,
                     "unmatched '{' in path template: " + tmpl);
      literals_.push_back(std::move(lit));
      lit.clear();
      exprs_.emplace_back(tmpl.substr(i + 1, close - i - 1));
      i = close + 1;
    }
    literals_.push_back(std::move(lit));
  } catch (const util::SimError& e) {
    error_ = e.what();
  }
}

std::string PathTemplate::expand(const EvalContext& ctx) const {
  if (!error_.empty()) throw util::SimError(error_);
  if (exprs_.empty()) return literals_.front();
  std::string out;
  out.reserve(size_hint_ + 8 * exprs_.size());
  for (std::size_t k = 0; k < exprs_.size(); ++k) {
    out += literals_[k];
    out += std::to_string(exprs_[k].eval(ctx));
  }
  out += literals_.back();
  return out;
}

}  // namespace wasp::pattern
