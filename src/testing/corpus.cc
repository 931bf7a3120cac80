#include "testing/corpus.h"

#include <charconv>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/check.h"
#include "datalog/parser.h"
#include "testing/describe.h"
#include "testing/generator.h"

namespace mondet {
namespace testing {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// A load error at 1-based file `line`, column `col`, rendered like the
/// view diagnostics so every positioned rejection reads the same way.
std::string PositionedError(int line, int col, const std::string& message) {
  SourceLoc loc;
  loc.line = line;
  loc.col = col;
  return FormatDiagnostic(
      MakeDiagnostic(Severity::kError, "repro", message, loc));
}

/// Offset of the first non-blank character of `s` (s.size() if none).
size_t Indent(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  return b == std::string::npos ? s.size() : b;
}

/// Parses one `Pred(e0,e3)` fact rendering (no sign, no trailing dot).
/// On failure sets `*error` and `*error_offset`, the offset in `text` the
/// error points at.
bool ParseFactBody(const std::string& text, const VocabularyPtr& vocab,
                   size_t num_elements, Fact* out, std::string* error,
                   size_t* error_offset) {
  *error_offset = 0;
  size_t open = text.find('(');
  size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    *error = "malformed fact `" + text + "`";
    return false;
  }
  std::string name = Trim(text.substr(0, open));
  std::optional<PredId> pred = vocab->FindPredicate(name);
  if (!pred.has_value()) {
    *error = "unknown predicate `" + name + "`";
    return false;
  }
  std::vector<ElemId> args;
  if (!Trim(text.substr(open + 1, close - open - 1)).empty()) {
    // Comma-separated `e<index>` tokens; `start` tracks each token's
    // offset in `text` so errors point at the token itself.
    for (size_t start = open + 1; start <= close;) {
      size_t end = text.find(',', start);
      if (end == std::string::npos || end > close) end = close;
      const std::string raw = text.substr(start, end - start);
      const std::string tok = Trim(raw);
      *error_offset = start + Indent(raw);
      size_t idx = 0;
      std::errc ec = std::errc::invalid_argument;
      if (tok.size() >= 2 && tok[0] == 'e') {
        const char* last = tok.data() + tok.size();
        auto r = std::from_chars(tok.data() + 1, last, idx);
        if (r.ptr == last) ec = r.ec;
      }
      if (ec == std::errc::invalid_argument) {
        *error = "malformed element `" + tok + "`";
        return false;
      }
      if (ec != std::errc() || idx >= num_elements) {
        *error = "element `" + tok + "` out of range (" +
                 std::to_string(num_elements) + " elements)";
        return false;
      }
      args.push_back(static_cast<ElemId>(idx));
      start = end + 1;
    }
  }
  if (static_cast<int>(args.size()) != vocab->arity(*pred)) {
    *error_offset = 0;
    *error = "arity mismatch for `" + name + "`";
    return false;
  }
  *out = Fact(*pred, std::move(args));
  return true;
}

struct Section {
  std::string header;  // inside the brackets, e.g. "view VA1"
  int line = 0;        // 1-based file line of the header
  std::vector<std::string> lines;
};

/// Where a `[view]` section sits in the file: its header line and the
/// position of the goal name (0 for atomic views).
struct ViewPos {
  int header_line = 0;
  int goal_line = 0;
  int goal_col = 0;
};

/// Builds view `spec` the way BuildViews will, but only in `vocab` (a
/// scratch copy shared by all views of the case, so earlier views' names
/// are visible): the query text must parse and define its goal, and the
/// view name must not already name a predicate of a different arity.
/// Returns the failure as a formatted diagnostic positioned in the file —
/// parser positions are moved from the view text, which starts right
/// below the goal line, and a failure without a parser position points
/// at the goal name or at the section header.
std::optional<std::string> ViewError(const ViewSpec& spec,
                                     const VocabularyPtr& vocab,
                                     const ViewPos& pos) {
  int arity = 0;
  if (spec.atomic_base != kNoPred) {
    arity = vocab->arity(spec.atomic_base);
  } else {
    std::vector<Diagnostic> diags;
    std::optional<DatalogQuery> query =
        ParseQuery(spec.text, spec.goal, vocab, &diags);
    if (!query.has_value()) {
      Diagnostic d = diags.empty() ? MakeDiagnostic(Severity::kError, "parse",
                                                    "view does not parse")
                                   : diags.front();
      if (d.loc.line > 0) {
        d.loc.line += pos.goal_line;
      } else {
        d.loc.line = pos.goal_line;
        d.loc.col = pos.goal_col;
      }
      return FormatDiagnostic(d);
    }
    arity = query->arity();
  }
  std::optional<PredId> existing = vocab->FindPredicate(spec.name);
  if (existing.has_value() && vocab->arity(*existing) != arity) {
    SourceLoc loc;
    loc.line = pos.header_line;
    loc.col = 1;
    return FormatDiagnostic(MakeDiagnostic(
        Severity::kError, "view-name",
        "view name " + spec.name + " already names a predicate of arity " +
            std::to_string(vocab->arity(*existing)),
        loc));
  }
  vocab->AddPredicate(spec.name, arity);
  return std::nullopt;
}

/// The corpus NTA format covers exactly the antichain oracle's automaton
/// family (RandomNta and its shrinks): width-1 automata over the two-label
/// alphabet with empty edge labels. Anything else has no rendering.
std::string NtaLabelName(const NodeLabel& label) {
  if (label == NtaLabelA()) return "A";
  MONDET_CHECK(label == NtaLabelB());
  return "B";
}

void SerializeNta(const Nta& m, const std::string& name, std::string* out) {
  *out += "[nta " + name + "]\n";
  *out += "width " + std::to_string(m.width()) + "\n";
  *out += "states " + std::to_string(m.num_states()) + "\n";
  *out += "finals";
  for (State q : m.finals()) *out += " " + std::to_string(q);
  *out += "\n";
  for (const Nta::LeafTransition& t : m.leaf_transitions()) {
    *out += "leaf " + NtaLabelName(t.label) + " -> " + std::to_string(t.to) +
            "\n";
  }
  for (const Nta::UnaryTransition& t : m.unary_transitions()) {
    MONDET_CHECK(t.edge.same.empty());
    *out += "unary " + NtaLabelName(t.label) + " " + std::to_string(t.child) +
            " -> " + std::to_string(t.to) + "\n";
  }
  for (const Nta::BinaryTransition& t : m.binary_transitions()) {
    MONDET_CHECK(t.edge1.same.empty() && t.edge2.same.empty());
    *out += "binary " + NtaLabelName(t.label) + " " +
            std::to_string(t.child1) + " " + std::to_string(t.child2) +
            " -> " + std::to_string(t.to) + "\n";
  }
}

}  // namespace

std::string SerializeCase(const FuzzCase& c) {
  std::string out;
  out += "oracle: " + c.oracle + "\n";
  out += "profile: " + c.profile.name + "\n";
  out += "seed: " + std::to_string(c.seed) + "\n";
  if (c.program.has_value()) {
    out += "[program]\n" + DescribeProgram(*c.program);
    if (!out.empty() && out.back() != '\n') out += "\n";
  }
  if (c.instance.has_value()) {
    out += "[instance]\n" + DescribeInstance(*c.instance);
  }
  if (!c.schedule.empty()) {
    out += "[schedule]\n" + DescribeSchedule(c.schedule, c.profile.vocab);
  }
  for (const ViewSpec& spec : c.views) {
    out += "[view " + spec.name + "]\n";
    if (spec.atomic_base != kNoPred) {
      out += "atomic " + c.profile.vocab->name(spec.atomic_base) + "\n";
    } else {
      out += "goal " + spec.goal + "\n" + spec.text;
      if (!spec.text.empty() && spec.text.back() != '\n') out += "\n";
    }
  }
  if (c.tm.has_value()) {
    out += "[tm]\n";
    out += "machine " + c.tm->machine + "\n";
    out += "input";
    for (int sym : c.tm->input) out += " " + std::to_string(sym);
    out += "\n";
    out += "steps " + std::to_string(c.tm->max_steps) + "\n";
  }
  if (c.nta_a.has_value()) SerializeNta(*c.nta_a, "a", &out);
  if (c.nta_b.has_value()) SerializeNta(*c.nta_b, "b", &out);
  return out;
}

std::optional<FuzzCase> ParseCaseText(const std::string& text,
                                      std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  struct HeaderLine {
    int line = 0;      // 1-based file line
    std::string text;  // the raw line
  };
  std::vector<HeaderLine> header_lines;
  std::vector<Section> sections;
  {
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      std::string t = Trim(line);
      if (!t.empty() && t.front() == '[' && t.back() == ']') {
        sections.push_back(
            Section{Trim(t.substr(1, t.size() - 2)), line_no, {}});
      } else if (!sections.empty()) {
        sections.back().lines.push_back(line);
      } else if (!t.empty()) {
        header_lines.push_back(HeaderLine{line_no, line});
      }
    }
  }

  FuzzCase c;
  std::string profile_name;
  for (const HeaderLine& hl : header_lines) {
    const std::string& h = hl.text;
    size_t colon = h.find(':');
    if (colon == std::string::npos) {
      return fail("bad header line `" + Trim(h) + "`");
    }
    std::string key = Trim(h.substr(0, colon));
    std::string value = Trim(h.substr(colon + 1));
    if (key == "oracle") {
      c.oracle = value;
    } else if (key == "profile") {
      profile_name = value;
    } else if (key == "seed") {
      // A whole unsigned decimal that fits: no sign, no trailing text.
      const char* last = value.data() + value.size();
      auto [ptr, ec] = std::from_chars(value.data(), last, c.seed);
      if (ec != std::errc() || ptr != last) {
        const size_t col = colon + 1 + Indent(h.substr(colon + 1));
        return fail(PositionedError(hl.line, static_cast<int>(col) + 1,
                                    "bad seed `" + value + "`"));
      }
    } else {
      return fail("unknown header key `" + key + "`");
    }
  }
  if (c.oracle.empty()) return fail("missing `oracle:` header");
  bool known_profile = false;
  for (const std::string& n : ProfileNames()) {
    if (n == profile_name) known_profile = true;
  }
  if (!known_profile) return fail("unknown profile `" + profile_name + "`");
  c.profile = ProfileByName(profile_name);

  std::vector<ViewPos> view_pos;  // aligned with c.views
  for (const Section& sec : sections) {
    std::string body;
    for (const std::string& l : sec.lines) body += l + "\n";
    if (sec.header == "program") {
      ParseResult pr = ParseProgram(body, c.profile.vocab);
      if (!pr.ok()) return fail("program: " + pr.error);
      c.program = std::move(pr.program);
    } else if (sec.header == "instance") {
      Instance inst(c.profile.vocab);
      bool have_elements = false;
      for (size_t li = 0; li < sec.lines.size(); ++li) {
        const std::string& raw = sec.lines[li];
        std::string t = Trim(raw);
        if (t.empty()) continue;
        if (!have_elements) {
          std::istringstream hl(t);
          std::string kw;
          int n = -1;
          hl >> kw >> n;
          if (kw != "elements" || n < 0) {
            return fail("instance: expected `elements N`, got `" + t + "`");
          }
          for (int i = 0; i < n; ++i) inst.AddElement();
          have_elements = true;
          continue;
        }
        if (t.back() != '.') return fail("instance: fact without `.`");
        Fact f(kNoPred, {});
        std::string err;
        size_t at = 0;
        if (!ParseFactBody(t.substr(0, t.size() - 1), c.profile.vocab,
                           inst.num_elements(), &f, &err, &at)) {
          return fail(PositionedError(sec.line + 1 + static_cast<int>(li),
                                      static_cast<int>(Indent(raw) + at) + 1,
                                      "instance: " + err));
        }
        inst.AddFact(f);
      }
      if (!have_elements) return fail("instance: missing `elements N`");
      c.instance = std::move(inst);
    } else if (sec.header == "schedule") {
      size_t instance_elems =
          c.instance.has_value() ? c.instance->num_elements() : 0;
      for (size_t li = 0; li < sec.lines.size(); ++li) {
        const std::string& raw = sec.lines[li];
        std::string t = Trim(raw);
        if (t.empty()) continue;
        if (t == "step") {
          c.schedule.push_back(RawBatch{});
          continue;
        }
        if (c.schedule.empty()) return fail("schedule: fact before `step`");
        if ((t[0] != '+' && t[0] != '-') || t.back() != '.') {
          return fail("schedule: expected `+Fact.`/`-Fact.`, got `" + t +
                      "`");
        }
        Fact f(kNoPred, {});
        std::string err;
        size_t at = 0;
        if (!ParseFactBody(t.substr(1, t.size() - 2), c.profile.vocab,
                           instance_elems, &f, &err, &at)) {
          // The fact body starts after the sign, one column further in.
          const size_t col = Indent(raw) + 1 + at + 1;
          return fail(PositionedError(sec.line + 1 + static_cast<int>(li),
                                      static_cast<int>(col), "schedule: " + err));
        }
        if (t[0] == '+') {
          c.schedule.back().inserts.push_back(f);
        } else {
          c.schedule.back().deletes.push_back(f);
        }
      }
    } else if (sec.header.rfind("view ", 0) == 0) {
      ViewSpec spec;
      spec.name = Trim(sec.header.substr(5));
      if (spec.name.empty()) return fail("view section without a name");
      bool have_kind = false;
      ViewPos pos;
      pos.header_line = sec.line;
      for (size_t li = 0; li < sec.lines.size(); ++li) {
        const std::string& raw = sec.lines[li];
        std::string t = Trim(raw);
        if (!have_kind) {
          if (t.empty()) continue;
          if (t.rfind("atomic ", 0) == 0) {
            std::string pred_name = Trim(t.substr(7));
            std::optional<PredId> pred =
                c.profile.vocab->FindPredicate(pred_name);
            if (!pred.has_value()) {
              return fail("view " + spec.name + ": unknown base predicate `" +
                          pred_name + "`");
            }
            spec.atomic_base = *pred;
          } else if (t.rfind("goal ", 0) == 0) {
            spec.goal = Trim(t.substr(5));
            pos.goal_line = sec.line + 1 + static_cast<int>(li);
            pos.goal_col = static_cast<int>(
                raw.find(spec.goal, raw.find("goal ") + 5) + 1);
          } else {
            return fail("view " + spec.name +
                        ": expected `atomic <Pred>` or `goal <G>`");
          }
          have_kind = true;
          continue;
        }
        spec.text += raw + "\n";
      }
      if (!have_kind) return fail("view " + spec.name + ": empty section");
      c.views.push_back(std::move(spec));
      view_pos.push_back(pos);
    } else if (sec.header == "tm") {
      TmCase tc;
      for (const std::string& raw : sec.lines) {
        std::string t = Trim(raw);
        if (t.empty()) continue;
        std::istringstream in(t);
        std::string kw;
        in >> kw;
        if (kw == "machine") {
          in >> tc.machine;
        } else if (kw == "input") {
          tc.input.clear();
          int sym = 0;
          while (in >> sym) tc.input.push_back(sym);
        } else if (kw == "steps") {
          long long n = -1;
          in >> n;
          if (n < 0) return fail("tm: bad steps");
          tc.max_steps = static_cast<size_t>(n);
        } else {
          return fail("tm: unknown key `" + kw + "`");
        }
      }
      if (tc.machine.empty()) return fail("tm: missing machine");
      c.tm = std::move(tc);
    } else if (sec.header == "nta a" || sec.header == "nta b") {
      int width = -1;
      long long nstates = -1;
      std::vector<long long> finals;
      struct LeafLine {
        std::string label;
        long long to;
      };
      struct UnaryLine {
        std::string label;
        long long child, to;
      };
      struct BinaryLine {
        std::string label;
        long long c1, c2, to;
      };
      std::vector<LeafLine> leafs;
      std::vector<UnaryLine> unaries;
      std::vector<BinaryLine> binaries;
      for (const std::string& raw : sec.lines) {
        std::string t = Trim(raw);
        if (t.empty()) continue;
        std::istringstream in(t);
        std::string kw;
        in >> kw;
        std::string arrow;
        if (kw == "width") {
          in >> width;
        } else if (kw == "states") {
          in >> nstates;
        } else if (kw == "finals") {
          long long q = 0;
          while (in >> q) finals.push_back(q);
        } else if (kw == "leaf") {
          LeafLine l{"", -1};
          in >> l.label >> arrow >> l.to;
          if (!in || arrow != "->") return fail("nta: bad line `" + t + "`");
          leafs.push_back(l);
        } else if (kw == "unary") {
          UnaryLine u{"", -1, -1};
          in >> u.label >> u.child >> arrow >> u.to;
          if (!in || arrow != "->") return fail("nta: bad line `" + t + "`");
          unaries.push_back(u);
        } else if (kw == "binary") {
          BinaryLine b{"", -1, -1, -1};
          in >> b.label >> b.c1 >> b.c2 >> arrow >> b.to;
          if (!in || arrow != "->") return fail("nta: bad line `" + t + "`");
          binaries.push_back(b);
        } else {
          return fail("nta: unknown key `" + kw + "`");
        }
      }
      if (width < 0) return fail("nta: missing `width`");
      if (nstates < 0) return fail("nta: missing `states`");
      auto in_range = [&](long long q) { return q >= 0 && q < nstates; };
      auto label_of = [&](const std::string& name,
                          NodeLabel* out_label) -> bool {
        if (name == "A") {
          *out_label = NtaLabelA();
          return true;
        }
        if (name == "B") {
          *out_label = NtaLabelB();
          return true;
        }
        return false;
      };
      Nta m(width);
      for (long long i = 0; i < nstates; ++i) m.AddState();
      for (long long q : finals) {
        if (!in_range(q)) return fail("nta: final state out of range");
        m.AddFinal(static_cast<State>(q));
      }
      NodeLabel label;
      for (const LeafLine& l : leafs) {
        if (!label_of(l.label, &label)) {
          return fail("nta: unknown label `" + l.label + "`");
        }
        if (!in_range(l.to)) return fail("nta: leaf state out of range");
        m.AddLeaf(label, static_cast<State>(l.to));
      }
      for (const UnaryLine& u : unaries) {
        if (!label_of(u.label, &label)) {
          return fail("nta: unknown label `" + u.label + "`");
        }
        if (!in_range(u.child) || !in_range(u.to)) {
          return fail("nta: unary state out of range");
        }
        m.AddUnary(label, EdgeLabel{}, static_cast<State>(u.child),
                   static_cast<State>(u.to));
      }
      for (const BinaryLine& b : binaries) {
        if (!label_of(b.label, &label)) {
          return fail("nta: unknown label `" + b.label + "`");
        }
        if (!in_range(b.c1) || !in_range(b.c2) || !in_range(b.to)) {
          return fail("nta: binary state out of range");
        }
        m.AddBinary(label, EdgeLabel{}, EdgeLabel{}, static_cast<State>(b.c1),
                    static_cast<State>(b.c2), static_cast<State>(b.to));
      }
      if (sec.header == "nta a") {
        c.nta_a = std::move(m);
      } else {
        c.nta_b = std::move(m);
      }
    } else {
      return fail("unknown section `[" + sec.header + "]`");
    }
  }
  // Replay builds the views with BuildViews, which aborts on a view it
  // cannot build, so reject those here — in file order, after the
  // program has interned its predicates, as BuildViews will see them.
  if (!c.views.empty()) {
    auto scratch = std::make_shared<Vocabulary>(*c.profile.vocab);
    for (size_t i = 0; i < c.views.size(); ++i) {
      if (auto err = ViewError(c.views[i], scratch, view_pos[i])) {
        return fail("view " + c.views[i].name + ": " + *err);
      }
    }
  }
  return c;
}

std::optional<FuzzCase> LoadCaseFile(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCaseText(buf.str(), error);
}

bool SaveCaseFile(const FuzzCase& c, const std::string& path,
                  std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << SerializeCase(c);
  out.close();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace testing
}  // namespace mondet
