// Corpus replay: every `.repro` under tests/corpus/cases/ must load,
// name a registered oracle, pass its check, and survive a byte-exact
// serialize round-trip (the corpus format doubles as the failure-message
// format, so drift here silently breaks `mondet-fuzz --replay` of old
// artifacts). A generative arm additionally round-trips fresh cases from
// every oracle through ParseCaseText and re-checks them, so corpus
// coverage does not depend on which files happen to be curated. The
// `.repro` files under tests/corpus/malformed/ must each be rejected at
// load time with a positioned diagnostic (replay then exits 2 instead of
// aborting while it builds the views).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "testing/corpus.h"
#include "testing/oracle.h"

#ifndef MONDET_CORPUS_DIR
#error "MONDET_CORPUS_DIR must point at tests/corpus"
#endif

namespace mondet {
namespace {

std::vector<std::string> CorpusFiles(const std::string& subdir = "cases") {
  std::vector<std::string> files;
  const std::filesystem::path dir =
      std::filesystem::path(MONDET_CORPUS_DIR) / subdir;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".repro") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CorpusReplay, CorpusIsNonEmpty) {
  EXPECT_GE(CorpusFiles().size(), 6u)
      << "tests/corpus/cases/ lost its curated repros";
}

TEST(CorpusReplay, EveryCorpusCasePassesItsOracle) {
  for (const std::string& file : CorpusFiles()) {
    std::string error;
    std::optional<testing::FuzzCase> c = testing::LoadCaseFile(file, &error);
    ASSERT_TRUE(c.has_value()) << file << ": " << error;
    const testing::Oracle* oracle = testing::FindOracle(c->oracle);
    ASSERT_NE(oracle, nullptr) << file << ": unknown oracle " << c->oracle;
    testing::OracleOutcome out = oracle->Check(*c);
    EXPECT_TRUE(out.ok) << file << "\n" << out.message;
  }
}

TEST(CorpusReplay, SerializationRoundTripsByteExact) {
  for (const std::string& file : CorpusFiles()) {
    std::string error;
    std::optional<testing::FuzzCase> c = testing::LoadCaseFile(file, &error);
    ASSERT_TRUE(c.has_value()) << file << ": " << error;
    EXPECT_EQ(testing::SerializeCase(*c), Slurp(file))
        << file << " does not round-trip; regenerate it with mondet-fuzz "
        << "or align the serializer";
  }
}

TEST(CorpusReplay, MalformedCasesAreRejectedWithPosition) {
  const std::map<std::string, std::string> want = {
      {"element-out-of-range.repro",
       "error[repro] line 9:8: instance: element `e7` out of range "
       "(2 elements)"},
      {"element-trailing-text.repro",
       "error[repro] line 9:4: instance: malformed element `e1x`"},
      {"elements-overflow.repro",
       "error[repro] line 7:10: instance: bad element count `99999999999` "
       "(at most 65536)"},
      {"elements-trailing-text.repro",
       "error[repro] line 7:10: instance: bad element count `5abc` "
       "(at most 65536)"},
      {"nta-finals-trailing-text.repro",
       "error[repro] line 7:8: nta: bad state `1x`"},
      {"nta-states-overflow.repro",
       "error[repro] line 6:8: nta: bad state count `9223372036854775807` "
       "(at most 65536)"},
      {"nta-transition-overflow.repro",
       "error[repro] line 8:11: nta: bad state `18446744073709551616`"},
      {"nta-width-mismatch.repro",
       "error[repro] line 10:7: nta: width 2 unsupported (width 1 only)"},
      {"nta-width-negative.repro", "error[repro] line 5:7: nta: bad width `-1`"},
      {"schedule-element-negative.repro",
       "error[repro] line 12:5: schedule: malformed element `e-1`"},
      {"seed-negative.repro", "error[repro] line 3:7: bad seed `-1`"},
      {"seed-overflow.repro", "error[repro] line 3:7: bad seed `99999999999`"},
      {"seed-trailing-text.repro", "error[repro] line 3:7: bad seed `5abc`"},
      {"tm-input-trailing-text.repro",
       "error[repro] line 6:9: tm: bad input symbol `1x`"},
      {"tm-steps-negative.repro", "error[repro] line 7:7: tm: bad steps `-1`"},
      {"view-bad-rule.repro",
       "view VReach: error[parse] line 12:23: expected ',' or ')'"},
      {"view-name-clash.repro",
       "view E2: error[view-name] line 9:1: view name E2 already names a "
       "predicate of arity 2"},
      {"view-undefined-goal.repro",
       "view VReach: error[goal] line 10:6: goal predicate VX has no rules"},
  };
  const std::vector<std::string> files = CorpusFiles("malformed");
  ASSERT_EQ(files.size(), want.size());
  for (const std::string& file : files) {
    const std::string name = std::filesystem::path(file).filename().string();
    ASSERT_TRUE(want.count(name)) << "unexpected malformed case " << name;
    std::string error;
    EXPECT_FALSE(testing::LoadCaseFile(file, &error).has_value()) << name;
    EXPECT_EQ(error, want.at(name));
  }
}

// Fresh cases from every oracle round-trip through the corpus format
// with id-exact programs/instances: the reparsed case must both render
// identically and still pass its oracle.
TEST(CorpusReplay, GeneratedCasesRoundTripAndRecheck) {
  for (const testing::Oracle* oracle : testing::AllOracles()) {
    for (unsigned seed = 0; seed < 6; ++seed) {
      testing::FuzzCase c = oracle->Generate(seed);
      const std::string text = testing::SerializeCase(c);
      std::string error;
      std::optional<testing::FuzzCase> back =
          testing::ParseCaseText(text, &error);
      ASSERT_TRUE(back.has_value())
          << oracle->name() << " seed " << seed << ": " << error << "\n"
          << text;
      EXPECT_EQ(testing::SerializeCase(*back), text)
          << oracle->name() << " seed " << seed;
      testing::OracleOutcome out = oracle->Check(*back);
      EXPECT_TRUE(out.ok) << oracle->name() << " seed " << seed
                          << " fails after round-trip\n"
                          << out.message;
    }
  }
}

}  // namespace
}  // namespace mondet
