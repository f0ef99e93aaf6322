#include "cassalite/cql.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"

namespace hpcla::cassalite {
namespace {

// ---------------------------------------------------------------- lexer

enum class TokKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   ///< identifier (lowercased) / symbol / raw number
  Value literal;      ///< for kNumber / kString
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> out;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(ident());
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '+') {
        auto t = number();
        if (!t.is_ok()) return t.status();
        out.push_back(std::move(t.value()));
      } else if (c == '\'') {
        auto t = string_lit();
        if (!t.is_ok()) return t.status();
        out.push_back(std::move(t.value()));
      } else if (c == '<' || c == '>') {
        std::string sym(1, c);
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '=') {
          sym.push_back('=');
          ++pos_;
        }
        out.push_back(Token{TokKind::kSymbol, sym, {}});
      } else if (c == '=' || c == ',' || c == '(' || c == ')' || c == '*' ||
                 c == ';') {
        out.push_back(Token{TokKind::kSymbol, std::string(1, c), {}});
        ++pos_;
      } else {
        return invalid_argument("CQL: unexpected character '" +
                                std::string(1, c) + "' at offset " +
                                std::to_string(pos_));
      }
    }
    out.push_back(Token{TokKind::kEnd, "", {}});
    return out;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Token ident() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    Token t;
    t.kind = TokKind::kIdent;
    t.text = to_lower(text_.substr(start, pos_ - start));
    return t;
  }

  Result<Token> number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-') &&
            (c == 'e' || c == 'E')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    const std::string raw(text_.substr(start, pos_ - start));
    Token t;
    t.kind = TokKind::kNumber;
    t.text = raw;
    if (!is_double) {
      long long v = 0;
      if (!parse_int(raw, v)) {
        return invalid_argument("CQL: bad integer literal '" + raw + "'");
      }
      t.literal = Value(static_cast<std::int64_t>(v));
    } else {
      try {
        t.literal = Value(std::stod(raw));
      } catch (...) {
        return invalid_argument("CQL: bad numeric literal '" + raw + "'");
      }
    }
    return t;
  }

  Result<Token> string_lit() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '\'') {
        if (pos_ < text_.size() && text_[pos_] == '\'') {
          out.push_back('\'');  // '' escape
          ++pos_;
          continue;
        }
        Token t;
        t.kind = TokKind::kString;
        t.literal = Value(out);
        t.text = std::move(out);
        return t;
      }
      out.push_back(c);
    }
    return invalid_argument("CQL: unterminated string literal");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------- parser

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<CqlStatement> parse() {
    CqlStatement stmt;
    if (accept_kw("select")) {
      auto s = parse_select();
      if (!s.is_ok()) return s.status();
      stmt.select = std::move(s.value());
    } else if (accept_kw("insert")) {
      auto i = parse_insert();
      if (!i.is_ok()) return i.status();
      stmt.insert = std::move(i.value());
    } else {
      return invalid_argument("CQL: expected SELECT or INSERT");
    }
    accept_sym(";");
    if (peek().kind != TokKind::kEnd) {
      return invalid_argument("CQL: trailing tokens after statement");
    }
    return stmt;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }

  bool accept_kw(std::string_view kw) {
    if (peek().kind == TokKind::kIdent && peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool accept_sym(std::string_view sym) {
    if (peek().kind == TokKind::kSymbol && peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> expect_ident(const char* what) {
    if (peek().kind != TokKind::kIdent) {
      return invalid_argument(std::string("CQL: expected ") + what);
    }
    return advance().text;
  }

  Result<Value> expect_literal() {
    const Token& t = peek();
    if (t.kind == TokKind::kNumber || t.kind == TokKind::kString) {
      return advance().literal;
    }
    if (t.kind == TokKind::kIdent) {
      if (t.text == "true") {
        ++pos_;
        return Value(true);
      }
      if (t.text == "false") {
        ++pos_;
        return Value(false);
      }
      if (t.text == "null") {
        ++pos_;
        return Value();
      }
    }
    return invalid_argument("CQL: expected literal, got '" + t.text + "'");
  }

  Result<CqlSelect> parse_select() {
    CqlSelect sel;
    // Projection.
    if (accept_sym("*")) {
      // all columns
    } else if (peek().kind == TokKind::kIdent && peek().text == "count") {
      ++pos_;
      if (!accept_sym("(") || !accept_sym("*") || !accept_sym(")")) {
        return invalid_argument("CQL: expected COUNT(*)");
      }
      sel.count_only = true;
    } else {
      while (true) {
        auto col = expect_ident("column name");
        if (!col.is_ok()) return col.status();
        sel.columns.push_back(std::move(col.value()));
        if (!accept_sym(",")) break;
      }
    }
    if (!accept_kw("from")) return invalid_argument("CQL: expected FROM");
    auto table = expect_ident("table name");
    if (!table.is_ok()) return table.status();
    sel.table = std::move(table.value());

    // WHERE clauses. Equalities go to partition_eq (the executor decides,
    // schema in hand, whether each names a partition column or the first
    // clustering column); range operators fill the clustering slots.
    if (accept_kw("where")) {
      while (true) {
        auto col = expect_ident("column in WHERE");
        if (!col.is_ok()) return col.status();
        std::string op;
        for (const char* candidate : {"=", "<=", ">=", "<", ">"}) {
          if (accept_sym(candidate)) {
            op = candidate;
            break;
          }
        }
        if (op.empty()) {
          return invalid_argument("CQL: expected comparison operator");
        }
        auto lit = expect_literal();
        if (!lit.is_ok()) return lit.status();
        if (op == "=") {
          sel.partition_eq.emplace_back(col.value(), std::move(lit.value()));
        } else {
          if (op == "<") {
            sel.ck_upper = std::move(lit.value());
            sel.ck_upper_inclusive = false;
          } else if (op == "<=") {
            sel.ck_upper = std::move(lit.value());
            sel.ck_upper_inclusive = true;
          } else if (op == ">") {
            sel.ck_lower = std::move(lit.value());
            sel.ck_lower_strict = true;
          } else {  // >=
            sel.ck_lower = std::move(lit.value());
            sel.ck_lower_strict = false;
          }
          sel_range_cols_.push_back(col.value());
        }
        if (!accept_kw("and")) break;
      }
    }

    if (accept_kw("order")) {
      if (!accept_kw("by")) return invalid_argument("CQL: expected ORDER BY");
      auto col = expect_ident("ORDER BY column");
      if (!col.is_ok()) return col.status();
      sel_order_col_ = col.value();
      if (accept_kw("desc")) {
        sel.order_desc = true;
      } else {
        accept_kw("asc");
      }
    }
    if (accept_kw("limit")) {
      if (peek().kind != TokKind::kNumber || !peek().literal.is_int() ||
          peek().literal.as_int() <= 0) {
        return invalid_argument("CQL: LIMIT requires a positive integer");
      }
      sel.limit = static_cast<std::size_t>(advance().literal.as_int());
    }
    return sel;
  }

  Result<CqlInsert> parse_insert() {
    CqlInsert ins;
    if (!accept_kw("into")) return invalid_argument("CQL: expected INTO");
    auto table = expect_ident("table name");
    if (!table.is_ok()) return table.status();
    ins.table = std::move(table.value());
    if (!accept_sym("(")) return invalid_argument("CQL: expected '('");
    std::vector<std::string> cols;
    while (true) {
      auto col = expect_ident("column name");
      if (!col.is_ok()) return col.status();
      cols.push_back(std::move(col.value()));
      if (accept_sym(",")) continue;
      break;
    }
    if (!accept_sym(")")) return invalid_argument("CQL: expected ')'");
    if (!accept_kw("values")) return invalid_argument("CQL: expected VALUES");
    if (!accept_sym("(")) return invalid_argument("CQL: expected '('");
    std::vector<Value> vals;
    while (true) {
      auto lit = expect_literal();
      if (!lit.is_ok()) return lit.status();
      vals.push_back(std::move(lit.value()));
      if (accept_sym(",")) continue;
      break;
    }
    if (!accept_sym(")")) return invalid_argument("CQL: expected ')'");
    if (cols.size() != vals.size()) {
      return invalid_argument("CQL: column/value count mismatch");
    }
    for (std::size_t i = 0; i < cols.size(); ++i) {
      ins.values.emplace_back(std::move(cols[i]), std::move(vals[i]));
    }
    return ins;
  }

 public:
  // Side-channel parse artifacts the executor needs.
  std::vector<std::string> sel_range_cols_;
  std::string sel_order_col_;

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

std::string value_to_key_part(const Value& v) {
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_text()) return v.as_text();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_double()) return format_double(v.as_double(), 17);
  return "";
}

}  // namespace

Result<CqlStatement> parse_cql(std::string_view text) {
  Lexer lexer(text);
  auto tokens = lexer.run();
  if (!tokens.is_ok()) return tokens.status();
  Parser parser(std::move(tokens.value()));
  return parser.parse();
}

namespace {

Result<CqlResult> execute_select(Cluster& cluster, const CqlSelect& sel,
                                 const std::vector<std::string>& range_cols,
                                 const std::string& order_col,
                                 Consistency consistency) {
  auto schema = cluster.schema(sel.table);
  if (!schema.is_ok()) return schema.status();

  // Partition key: every partition column must have exactly one equality;
  // equalities on the first clustering column become an exact slice.
  std::vector<std::pair<std::string, Value>> pk_eq;
  std::optional<Value> ck_eq;
  const std::string first_ck = schema->clustering_key_columns.empty()
                                   ? std::string()
                                   : schema->clustering_key_columns.front();
  for (const auto& [col, lit] : sel.partition_eq) {
    const auto& pk_cols = schema->partition_key_columns;
    if (std::find(pk_cols.begin(), pk_cols.end(), col) != pk_cols.end()) {
      pk_eq.emplace_back(col, lit);
    } else if (col == first_ck) {
      if (ck_eq) return invalid_argument("CQL: duplicate equality on " + col);
      ck_eq = lit;
    } else {
      return invalid_argument(
          "CQL: column '" + col +
          "' is neither a partition column nor the first clustering column "
          "of " + sel.table);
    }
  }
  for (const auto& col : range_cols) {
    if (col != first_ck) {
      return invalid_argument("CQL: range predicate allowed only on '" +
                              first_ck + "' for table " + sel.table);
    }
  }
  if (!order_col.empty() && order_col != first_ck) {
    return invalid_argument("CQL: ORDER BY must name '" + first_ck + "'");
  }

  // Assemble the key in the schema's declared column order.
  std::string key;
  for (const auto& col : schema->partition_key_columns) {
    const auto it = std::find_if(pk_eq.begin(), pk_eq.end(),
                                 [&](const auto& p) { return p.first == col; });
    if (it == pk_eq.end()) {
      return invalid_argument("CQL: partition column '" + col +
                              "' must be constrained with '='");
    }
    if (!key.empty()) key.push_back('|');
    key += value_to_key_part(it->second);
  }

  // Slice bounds narrow the storage read where expressible; the exact CQL
  // semantics on the first clustering column ("=", ">", "<=" over
  // multi-part keys) are enforced by a residual filter afterwards. LIMIT
  // goes down to the replicas only when no residual filter follows the
  // read; otherwise it is applied post-filter.
  ReadQuery q;
  q.table = sel.table;
  q.partition_key = key;
  q.reverse = sel.order_desc;
  if (ck_eq) {
    ClusteringKey lower;
    lower.parts.push_back(*ck_eq);
    q.slice.lower = std::move(lower);  // residual: parts[0] == v
  } else {
    if (sel.ck_lower) {
      ClusteringKey lower;
      lower.parts.push_back(*sel.ck_lower);
      q.slice.lower = std::move(lower);  // '>' residual: parts[0] != v
    } else if (sel.ck_upper) {
      // The smallest key with a first part: a range admits no keyless row.
      q.slice.lower = ClusteringKey::of({Value()});
    }
    if (sel.ck_upper && !sel.ck_upper_inclusive) {
      ClusteringKey upper;
      upper.parts.push_back(*sel.ck_upper);
      q.slice.upper = std::move(upper);  // exact for '<'
    }
    // '<=' keeps the slice open above; residual: parts[0] <= v.
  }
  const bool residual = ck_eq || (sel.ck_lower && sel.ck_lower_strict) ||
                        (sel.ck_upper && sel.ck_upper_inclusive);
  q.limit = residual ? 0 : sel.limit;

  auto result = cluster.select(q, consistency);
  if (!result.is_ok()) return result.status();
  std::vector<Row> rows = std::move(result->rows);

  auto first_part_ok = [&](const Row& row) {
    if (row.key.parts.empty()) {
      return !ck_eq && !sel.ck_upper && !sel.ck_lower;
    }
    const Value& v = row.key.parts.front();
    if (ck_eq) return v == *ck_eq;
    if (sel.ck_lower && sel.ck_lower_strict && v == *sel.ck_lower) {
      return false;  // '>' excludes the bound's whole prefix
    }
    if (sel.ck_upper && sel.ck_upper_inclusive &&
        v.compare(*sel.ck_upper) == std::strong_ordering::greater) {
      return false;  // '<=' residual
    }
    return true;
  };

  CqlResult out;
  std::size_t admitted = 0;
  for (const auto& row : rows) {
    if (!first_part_ok(row)) continue;
    if (sel.limit && admitted >= sel.limit) break;
    ++admitted;
    if (sel.count_only) continue;
    Json obj = Json::object();
    // Clustering columns from the key, by declared name.
    for (std::size_t i = 0; i < schema->clustering_key_columns.size() &&
                            i < row.key.parts.size();
         ++i) {
      obj[schema->clustering_key_columns[i]] = row.key.parts[i].to_json();
    }
    for (const auto& cell : row.cells) {
      if (!sel.columns.empty() &&
          std::find(sel.columns.begin(), sel.columns.end(), cell.name) ==
              sel.columns.end()) {
        continue;
      }
      obj[cell.name] = cell.value.to_json();
    }
    out.rows.push_back(std::move(obj));
  }
  out.count = static_cast<std::int64_t>(admitted);
  out.is_rows = !sel.count_only;
  return out;
}

Result<CqlResult> execute_insert(Cluster& cluster, const CqlInsert& ins,
                                 Consistency consistency) {
  auto schema = cluster.schema(ins.table);
  if (!schema.is_ok()) return schema.status();

  const auto find_value = [&](const std::string& col) -> const Value* {
    for (const auto& [name, v] : ins.values) {
      if (name == col) return &v;
    }
    return nullptr;
  };

  std::string key;
  for (const auto& col : schema->partition_key_columns) {
    const Value* v = find_value(col);
    if (!v) {
      return invalid_argument("CQL INSERT: missing partition column '" + col +
                              "'");
    }
    if (!key.empty()) key.push_back('|');
    key += value_to_key_part(*v);
  }
  Row row;
  for (const auto& col : schema->clustering_key_columns) {
    const Value* v = find_value(col);
    if (!v) {
      return invalid_argument("CQL INSERT: missing clustering column '" + col +
                              "'");
    }
    row.key.parts.push_back(*v);
  }
  for (const auto& [name, v] : ins.values) {
    const auto& pk = schema->partition_key_columns;
    const auto& ck = schema->clustering_key_columns;
    if (std::find(pk.begin(), pk.end(), name) != pk.end()) continue;
    if (std::find(ck.begin(), ck.end(), name) != ck.end()) continue;
    row.set(name, v);
  }
  HPCLA_RETURN_IF_ERROR(cluster.insert(ins.table, key, std::move(row),
                                       consistency));
  CqlResult out;
  out.count = 1;
  return out;
}

}  // namespace

Result<CqlResult> execute_cql(Cluster& cluster, std::string_view text,
                              Consistency consistency) {
  Lexer lexer(text);
  auto tokens = lexer.run();
  if (!tokens.is_ok()) return tokens.status();
  Parser parser(std::move(tokens.value()));
  auto stmt = parser.parse();
  if (!stmt.is_ok()) return stmt.status();
  if (stmt->select) {
    return execute_select(cluster, *stmt->select, parser.sel_range_cols_,
                          parser.sel_order_col_, consistency);
  }
  return execute_insert(cluster, *stmt->insert, consistency);
}

}  // namespace hpcla::cassalite
