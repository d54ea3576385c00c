// Integer expression mini-language for the I/O-pattern IR.
//
// Pattern fields that depend on a lane's identity (rank, node, ...), on a
// loop variable, or on runtime file sizes are stored as small arithmetic
// expressions in source form ("max(size_of(\"/p/x_{node}\")/4096, 1)") so a
// pattern dumped to YAML is both human-readable and loadable. Everything a
// compiler can fold from workload params is baked to a literal before the
// pattern leaves the compile step; these expressions carry only what truly
// varies per lane or per run.
//
// Grammar (C-like, 64-bit signed integers; comparisons yield 0/1):
//   expr  := or
//   or    := and ("||" and)*
//   and   := cmp ("&&" cmp)*
//   cmp   := add (("=="|"!="|"<="|">="|"<"|">") add)?
//   add   := mul (("+"|"-") mul)*
//   mul   := unary (("*"|"/"|"%") unary)*
//   unary := "-" unary | primary
//   primary := integer | identifier | call | "(" expr ")"
//   call  := ("max"|"min"|"ceil_div") "(" expr "," expr ")"
//          | "size_of" "(" string ")"
// Division/modulo truncate toward zero (C++ semantics) and throw on zero
// divisors. size_of() takes a file-name template (see PathTemplate), which
// is compiled once when the expression is parsed, and asks the evaluation
// context for the expanded file's current size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace wasp::pattern {

namespace detail {
struct ExprNode;
}

/// Ordered name -> int64 bindings; set() overwrites an existing name.
class Env {
 public:
  void set(const std::string& name, std::int64_t value);
  const std::int64_t* find(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::int64_t>> vars_;
};

/// Everything an expression may consult when evaluated.
struct EvalContext {
  const Env* env = nullptr;
  /// Current size of a (fully expanded) path; required only when the
  /// expression uses size_of().
  std::function<std::int64_t(const std::string& path)> size_of;
};

/// A parsed expression. Copies share the immutable AST; the original
/// source text is preserved verbatim for serialization.
class Expr {
 public:
  Expr() = default;
  /// Parses `text`; throws util::SimError with a diagnostic on bad syntax.
  explicit Expr(std::string text);
  /// Literal constant.
  static Expr lit(std::int64_t v);

  bool empty() const noexcept { return ast_ == nullptr; }
  const std::string& text() const noexcept { return text_; }

  /// Evaluate; throws util::SimError on empty expressions, unknown
  /// variables, zero divisors, or size_of() without a provider.
  std::int64_t eval(const EvalContext& ctx) const;

 private:
  std::string text_;
  std::shared_ptr<const detail::ExprNode> ast_;
};

/// A file-name template ("/p/hacc/{rank}.ckpt") split once into literal and
/// "{expr}" pieces; expand() replaces each placeholder by the decimal value
/// of its expression. Construction never throws: a malformed template
/// (unmatched brace, bad expression) keeps its diagnostic and throws it as
/// util::SimError from every expand().
class PathTemplate {
 public:
  explicit PathTemplate(const std::string& tmpl);
  std::string expand(const EvalContext& ctx) const;

 private:
  /// literals_.size() == exprs_.size() + 1; expansion interleaves them as
  /// literals_[0] eval(exprs_[0]) literals_[1] ... literals_.back().
  std::vector<std::string> literals_;
  std::vector<Expr> exprs_;
  std::size_t size_hint_ = 0;
  std::string error_;  ///< non-empty: the diagnostic expand() throws
};

}  // namespace wasp::pattern
