#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace arlo {
namespace {

TEST(TablePrinter, AlignsColumnsAndSeparatesHeader) {
  TablePrinter t("demo");
  t.SetHeader({"a", "bbbb"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter t;
  t.SetHeader({"k", "v"});
  t.AddRow({"x", "1"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "k,v\nx,1\n");
}

TEST(TablePrinter, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Int(-5), "-5");
}

TEST(CliFlags, ParsesKeyValueAndBareFlags) {
  const char* argv[] = {"prog", "--gpus=10", "--scale=paper", "--verbose"};
  CliFlags flags(4, argv);
  EXPECT_EQ(flags.GetInt("gpus", 0), 10);
  EXPECT_EQ(flags.GetString("scale", "small"), "paper");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_TRUE(flags.Has("gpus"));
  EXPECT_FALSE(flags.Has("nope"));
}

TEST(CliFlags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliFlags(2, argv), std::invalid_argument);
}

TEST(CliFlags, BoolParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=no"};
  CliFlags flags(5, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(CliFlags, RejectUnknownThrowsOnUnqueriedFlag) {
  const char* argv[] = {"prog", "--rate=10", "--rat=20"};
  CliFlags flags(3, argv);
  (void)flags.GetDouble("rate", 0.0);
  try {
    flags.RejectUnknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Names the offending flag and lists the valid schema.
    EXPECT_NE(what.find("--rat"), std::string::npos) << what;
    EXPECT_NE(what.find("--rate"), std::string::npos) << what;
  }
}

TEST(CliFlags, RejectUnknownPassesWhenAllFlagsQueried) {
  const char* argv[] = {"prog", "--rate=10", "--gpus=4"};
  CliFlags flags(3, argv);
  (void)flags.GetDouble("rate", 0.0);
  (void)flags.GetInt("gpus", 0);
  EXPECT_NO_THROW(flags.RejectUnknown());
}

TEST(CliFlags, RejectUnknownMessageIsSortedAndStable) {
  // Golden message: both lists are sorted regardless of argv / query order,
  // so tools can test against the exact text.
  const char* argv[] = {"prog", "--zeta=1", "--alpha=2"};
  CliFlags flags(3, argv);
  (void)flags.GetInt("mid", 0);
  (void)flags.GetInt("aardvark", 0);
  try {
    flags.RejectUnknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown flag(s): --alpha, --zeta "
                 "(valid flags: --aardvark, --mid)");
  }
}

TEST(CliFlags, RejectUnknownHonorsExtraKnown) {
  const char* argv[] = {"prog", "--pattern=bursty"};
  CliFlags flags(2, argv);
  // "pattern" is only read on some code paths; extra_known covers it.
  EXPECT_THROW(flags.RejectUnknown(), std::invalid_argument);
  EXPECT_NO_THROW(flags.RejectUnknown({"pattern"}));
}

TEST(CliFlags, HelpListsTheValidFlagsInsteadOfRejecting) {
  const char* argv[] = {"prog", "--help", "--typo=1"};
  CliFlags flags(3, argv);
  (void)flags.GetInt("rate", 0);
  try {
    flags.RejectUnknown({"seed"});
    FAIL() << "expected CliHelpRequested";
  } catch (const CliHelpRequested& help) {
    EXPECT_STREQ(help.what(), "valid flags: --rate, --seed, --help\n");
  }
}

TEST(CliFlags, MalformedNumbersNameTheFlag) {
  const char* argv[] = {"prog", "--gpus=4x", "--rate=",
                        "--big=99999999999999999999"};
  CliFlags flags(4, argv);
  const auto message = [](auto read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([&] { (void)flags.GetInt("gpus", 0); }),
            "bad --gpus value '4x' (want an integer)");
  EXPECT_EQ(message([&] { (void)flags.GetDouble("rate", 0.0); }),
            "bad --rate value '' (want a number)");
  EXPECT_EQ(message([&] { (void)flags.GetInt("big", 0); }),
            "bad --big value '99999999999999999999' (want an integer)");
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  auto f1 = pool.Submit([] { return 21 * 2; });
  auto f2 = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsAllTasksOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, 4, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallback) {
  int order_check = 0;
  ParallelFor(10, 1, [&order_check](std::size_t i) {
    // Serial path preserves order.
    EXPECT_EQ(order_check, static_cast<int>(i));
    ++order_check;
  });
  EXPECT_EQ(order_check, 10);
}

TEST(ParallelFor, ZeroItemsIsNoop) {
  ParallelFor(0, 4, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace arlo
