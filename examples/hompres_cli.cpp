// hompres_cli: a small interactive shell over the library. Define
// structures in the text format, then query them: homomorphisms, cores,
// treewidth, FO evaluation, Datalog, scattered sets.
//
//   ./build/examples/hompres_cli [--timeout-ms <n>] [--max-steps <n>]
//                                [--threads <n>] [--retries <n>]
//                                [--explain]
//   > let a = |A|=3; E={(0 1),(1 2),(2 0)}
//   > let b = |A|=2; E={(0 1),(1 0)}
//   > hom a b
//   > core a
//   > eval a exists x E(x,x)
//   > tw a
//   > help
//
// --timeout-ms / --max-steps bound every search command; a search that
// hits the budget prints "budget exhausted" instead of hanging.
// --threads <n> runs the hom / core / datalog commands on n worker
// threads (0, the default, is the serial engine). --retries <n> reruns
// an exhausted hom query up to n more times with geometrically
// escalating budgets (base/retry.h). --explain prints the engine's
// query plan and execution trace before each hom answer.
//
// SIGINT / SIGTERM raise a cancel flag checked by every budgeted
// command: the running search stops with reason=cancelled, its partial
// budget report is printed, and the shell exits.
//
// Exit codes: 0 = all commands completed, 2 = some command exhausted its
// budget, 3 = some input failed to parse (parse errors win over budget
// exhaustion), 4 = interrupted by SIGINT/SIGTERM (wins over 2 and 3).

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "base/budget.h"
#include "base/outcome.h"
#include "base/parse_error.h"
#include "base/retry.h"
#include "core/preservation.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "fo/eval.h"
#include "fo/parser.h"
#include "graph/scattered.h"
#include "hom/core.h"
#include "structure/gaifman.h"
#include "structure/parser.h"
#include "structure/vocabulary.h"
#include "tw/tree_decomposition.h"

namespace {

using namespace hompres;

constexpr int kExitDone = 0;
constexpr int kExitUsage = 1;
constexpr int kExitExhausted = 2;
constexpr int kExitParseError = 3;
constexpr int kExitInterrupted = 4;

// Raised by SIGINT/SIGTERM; every budgeted command polls it through its
// budget's cancel flag, so a Ctrl-C stops the search at the next
// checkpoint instead of killing the process mid-write.
std::atomic<bool> g_interrupted{false};

extern "C" void HandleInterrupt(int /*signum*/) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

struct CliLimits {
  uint64_t max_steps = 0;       // 0 = unlimited
  uint64_t timeout_ms = 0;      // 0 = unlimited
  uint64_t threads = 0;         // 0 = serial engines
  uint64_t retries = 0;         // extra escalated hom attempts
  bool explain = false;         // print plan + trace for hom queries
};

Budget MakeBudget(const CliLimits& limits) {
  Budget budget = Budget::Unlimited();
  if (limits.max_steps != 0) budget.WithMaxSteps(limits.max_steps);
  if (limits.timeout_ms != 0) {
    budget.WithTimeout(std::chrono::milliseconds(limits.timeout_ms));
  }
  budget.WithCancelFlag(&g_interrupted);
  return budget;
}

// The hom command's escalation schedule: attempt 0 runs with the CLI
// limits; each of the `retries` extra attempts quadruples both limits.
RetryPolicy MakeHomRetryPolicy(const CliLimits& limits) {
  RetryPolicy policy;
  policy.initial_steps = limits.max_steps;
  policy.initial_timeout = std::chrono::milliseconds(limits.timeout_ms);
  policy.max_attempts =
      1 + static_cast<int>(std::min<uint64_t>(limits.retries, 16));
  policy.escalation_factor = 4;
  policy.cancel = &g_interrupted;
  return policy;
}

void PrintExhausted(const BudgetReport& report) {
  std::printf(
      "budget exhausted (%s after %llu steps, %lld ms)\n",
      StopReasonName(report.reason),
      static_cast<unsigned long long>(report.steps_used),
      static_cast<long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              report.elapsed)
              .count()));
}

void PrintHelp() {
  std::printf(
      "commands (vocabulary is {E/2}):\n"
      "  let <name> = |A|=<n>; E={(a b),...}   define a structure\n"
      "  show <name>                            print it\n"
      "  hom <a> <b>                            homomorphism a -> b?\n"
      "  core <name>                            compute the core\n"
      "  tw <name>                              exact treewidth (n<=22)\n"
      "  eval <name> <FO sentence>              evaluate a sentence\n"
      "  datalog <name> <rules>                 run a Datalog program\n"
      "  scattered <name> <s> <d>               max d-scattered set after\n"
      "                                         removing <= s vertices\n"
      "  help | quit\n");
}

// Overflow-checked flag-value parse (no exceptions).
bool ParseUint64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliLimits limits;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t* target = nullptr;
    if (std::strcmp(arg, "--explain") == 0) {
      limits.explain = true;
      continue;
    } else if (std::strcmp(arg, "--timeout-ms") == 0) {
      target = &limits.timeout_ms;
    } else if (std::strcmp(arg, "--max-steps") == 0) {
      target = &limits.max_steps;
    } else if (std::strcmp(arg, "--threads") == 0) {
      target = &limits.threads;
    } else if (std::strcmp(arg, "--retries") == 0) {
      target = &limits.retries;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (supported: --timeout-ms <n>, "
                   "--max-steps <n>, --threads <n>, --retries <n>, "
                   "--explain)\n",
                   arg);
      return kExitUsage;
    }
    if (i + 1 >= argc || !ParseUint64(argv[i + 1], target)) {
      std::fprintf(stderr, "flag '%s' needs a non-negative integer\n", arg);
      return kExitUsage;
    }
    ++i;
  }

  const int num_threads =
      static_cast<int>(std::min<uint64_t>(limits.threads, 256));

  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);

  std::map<std::string, Structure> environment;
  const Vocabulary voc = GraphVocabulary();
  bool saw_parse_error = false;
  bool saw_exhausted = false;
  PrintHelp();
  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (g_interrupted.load(std::memory_order_relaxed)) break;
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command == "quit" || command == "exit") break;
    if (command == "help" || command.empty()) {
      PrintHelp();
    } else if (command == "let") {
      std::string name;
      std::string equals;
      in >> name >> equals;
      std::string rest;
      std::getline(in, rest);
      ParseError error;
      auto s = ParseStructure(rest, voc, &error);
      if (equals != "=" || !s.has_value()) {
        saw_parse_error = true;
        std::printf("parse error: %s\n",
                    error.message.empty() ? "usage: let x = |A|=..."
                                          : error.ToString().c_str());
      } else {
        environment.insert_or_assign(name, std::move(*s));
        std::printf("ok\n");
      }
    } else if (command == "show" || command == "core" || command == "tw") {
      std::string name;
      in >> name;
      auto it = environment.find(name);
      if (it == environment.end()) {
        std::printf("error: unknown structure '%s'\n", name.c_str());
      } else if (command == "show") {
        std::printf("%s\n", it->second.DebugString().c_str());
      } else if (command == "core") {
        Budget budget = MakeBudget(limits);
        auto core = ComputeCoreBudgeted(it->second, budget, num_threads);
        if (!core.IsDone()) {
          saw_exhausted = true;
          PrintExhausted(core.Report());
        } else {
          std::printf("%s\n", core.Value().DebugString().c_str());
        }
      } else {
        std::printf("treewidth = %d\n", StructureTreewidth(it->second));
      }
    } else if (command == "hom") {
      std::string a;
      std::string b;
      in >> a >> b;
      auto ita = environment.find(a);
      auto itb = environment.find(b);
      if (ita == environment.end() || itb == environment.end()) {
        std::printf("error: unknown structure\n");
      } else {
        EngineConfig config;
        config.num_threads = num_threads;
        config.deterministic_witness = true;  // stable CLI output
        HomProblem problem;
        problem.source = &ita->second;
        problem.target = &itb->second;
        problem.mode = HomQueryMode::kFind;
        // Planning cannot fail: every structure shares the {E/2}
        // vocabulary, and deterministic_witness without threads is a
        // mode-driven normalization, not an error.
        const PlanResult planned = PlanHomQuery(problem, config);
        const HomPlan& plan = *planned.plan;
        if (limits.explain) std::printf("%s", plan.Explain().c_str());
        ExecutionTrace trace;
        const RetrySchedule schedule(MakeHomRetryPolicy(limits));
        auto run_attempt = [&](int attempt) {
          trace = ExecutionTrace{};
          Budget budget = schedule.MakeBudget(attempt);
          return Engine::Execute(plan, budget,
                                 limits.explain ? &trace : nullptr);
        };
        auto h = run_attempt(0);
        for (int attempt = 1; attempt < schedule.NumAttempts() &&
                              !h.IsDone() && !h.IsCancelled();
             ++attempt) {
          if (!schedule.Backoff(attempt)) break;
          if (limits.explain) {
            const RetryAttempt next = schedule.Attempt(attempt);
            std::printf("retry %d/%d (max_steps=%llu timeout_ms=%lld)\n",
                        attempt, schedule.NumAttempts() - 1,
                        static_cast<unsigned long long>(next.max_steps),
                        static_cast<long long>(
                            std::chrono::duration_cast<
                                std::chrono::milliseconds>(next.timeout)
                                .count()));
          }
          h = run_attempt(attempt);
        }
        if (limits.explain) {
          std::printf("%s\n", trace.ToString().c_str());
        }
        if (!h.IsDone()) {
          saw_exhausted = true;
          PrintExhausted(h.Report());
        } else if (!h.Value().witness.has_value()) {
          std::printf("no homomorphism\n");
        } else {
          std::printf("h = [");
          const auto& map = *h.Value().witness;
          for (size_t i = 0; i < map.size(); ++i) {
            std::printf("%s%d->%d", i ? ", " : "", static_cast<int>(i),
                        map[i]);
          }
          std::printf("]\n");
        }
      }
    } else if (command == "eval") {
      std::string name;
      in >> name;
      std::string rest;
      std::getline(in, rest);
      auto it = environment.find(name);
      ParseError error;
      auto f = ParseFormula(rest, &error);
      std::string vocabulary_error;
      if (it == environment.end()) {
        std::printf("error: unknown structure '%s'\n", name.c_str());
      } else if (!f.has_value()) {
        saw_parse_error = true;
        std::printf("parse error: %s\n", error.ToString().c_str());
      } else if (!IsSentence(*f)) {
        saw_parse_error = true;
        std::printf("parse error: formula has free variables\n");
      } else if (!ValidateFormulaForVocabulary(*f, voc,
                                               &vocabulary_error)) {
        saw_parse_error = true;
        std::printf("parse error: %s\n", vocabulary_error.c_str());
      } else {
        std::printf("%s\n",
                    EvaluateSentence(it->second, *f) ? "true" : "false");
      }
    } else if (command == "datalog") {
      std::string name;
      in >> name;
      std::string rest;
      std::getline(in, rest);
      auto it = environment.find(name);
      ParseError error;
      auto program = ParseDatalogProgram(rest, voc, &error);
      if (it == environment.end()) {
        std::printf("error: unknown structure '%s'\n", name.c_str());
      } else if (!program.has_value()) {
        saw_parse_error = true;
        std::printf("parse error: %s\n", error.ToString().c_str());
      } else {
        Budget budget = MakeBudget(limits);
        auto outcome = EvaluateSemiNaiveBudgeted(*program, it->second,
                                                 budget, num_threads);
        if (!outcome.IsDone()) {
          saw_exhausted = true;
          PrintExhausted(outcome.Report());
        } else {
          const DatalogResult& result = outcome.Value();
          for (int idb = 0; idb < program->Idb().NumRelations(); ++idb) {
            std::printf("%s:", program->Idb().Name(idb).c_str());
            for (const Tuple& t : result.idb[static_cast<size_t>(idb)]) {
              std::printf(" (");
              for (size_t i = 0; i < t.size(); ++i) {
                std::printf("%s%d", i ? " " : "", t[i]);
              }
              std::printf(")");
            }
            std::printf("\n");
          }
          std::printf("fixpoint after %d stage(s)\n", result.stages);
        }
      }
    } else if (command == "scattered") {
      std::string name;
      int s = 0;
      int d = 0;
      in >> name >> s >> d;
      auto it = environment.find(name);
      if (it == environment.end() || s < 0 || d < 0) {
        std::printf("error: usage: scattered <name> <s> <d>\n");
      } else {
        const Graph g = GaifmanGraph(it->second);
        Budget budget = MakeBudget(limits);
        int best = 0;
        bool exhausted = false;
        for (int m = 1; m <= g.NumVertices(); ++m) {
          auto witness = FindScatteredAfterRemovalBudgeted(g, s, d, m,
                                                           budget);
          if (!witness.IsDone()) {
            exhausted = true;
            saw_exhausted = true;
            PrintExhausted(witness.Report());
            break;
          }
          if (witness.Value().has_value()) {
            best = m;
          } else {
            break;
          }
        }
        if (!exhausted) {
          std::printf("max %d-scattered set after removing <= %d: %d\n", d,
                      s, best);
        }
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  if (g_interrupted.load(std::memory_order_relaxed)) {
    std::printf("\ninterrupted\n");
    return kExitInterrupted;
  }
  if (saw_parse_error) return kExitParseError;
  if (saw_exhausted) return kExitExhausted;
  return kExitDone;
}
