/**
 * @file
 * Internal interface between the vrdlint driver (vrdlint.cc) and the
 * rule families (rules_core.cc, rules_rng_flow.cc, rules_float.cc,
 * rules_lock.cc). Not part of the public vrdlint.h API.
 */
#ifndef VRDDRAM_TOOLS_VRDLINT_RULES_H
#define VRDDRAM_TOOLS_VRDLINT_RULES_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "symbol_index.h"
#include "tokenizer.h"
#include "vrdlint.h"

namespace vrdlint {

/// Everything a rule needs to scan one file in pass 2.
struct RuleContext {
  const std::string& path;
  const FileView& view;
  const FileSymbols& symbols;
  const SymbolIndex& index;
  const Config& config;
  /// Extra unordered-container names from the paired header, or null.
  const std::vector<std::string>* extra_unordered = nullptr;
};

bool IsHeaderPath(std::string_view path);
bool RuleSuppressedForPath(const Config& config, std::string_view rule,
                           std::string_view path);

/// An Rng object declared in this file (rules_core.cc collects them;
/// rng-discipline and rng-flow both consume them).
struct RngDecl {
  std::string name;
  std::size_t pos = 0;  // flat offset of the declaration
};

/// One `ParallelFor`/`ParallelForThreads`/`Submit` call carrying an
/// inline lambda.
struct DispatchLambda {
  std::string_view keyword;    // the dispatch call's name
  std::size_t kw = 0;          // flat offset of the keyword
  std::size_t open = 0;        // '(' of the dispatch call
  std::size_t close = 0;       // matching ')'
  std::size_t intro = 0;       // '[' of the lambda introducer
  std::size_t intro_close = 0; // matching ']'
  std::size_t body_open = 0;   // '{' of the lambda body
  std::size_t body_close = 0;  // matching '}'
};

std::vector<DispatchLambda> FindDispatchLambdas(const FileView& view);

/// Start-of-enclosing-scope heuristic: the nearest preceding line that
/// begins at column 0 with an identifier or '}'.
std::size_t EnclosingScopeStart(const FileView& view, std::size_t line);

/// True when a Fork(...) call appears between the enclosing scope
/// start and `before` — the pre-forked-streams excusal shared by
/// rng-discipline and rng-flow.
bool ForkedInEnclosingScope(const FileView& view, std::size_t before);

/// A seed expression: empty, pure literal arithmetic, seed-named, or
/// rooted in a registered seed-call (MixSeed/HashLabel/... + config).
bool IsSeedExpression(std::string_view args, const Config& config);

/// Names declared with an unordered container type in the file.
std::vector<std::string> CollectUnorderedNames(const FileView& view);

/// Run the v1 rule families (banned-api, unordered-iteration,
/// rng-discipline, catch-all-swallow, campaign-discipline,
/// kernel-allocation, header-hygiene), returning the Rng declarations
/// for the rng-flow family to reuse.
std::vector<RngDecl> RunCoreRules(const RuleContext& ctx,
                                  std::vector<Diagnostic>* diagnostics);

/// rng-flow: by-ref capture of an Rng into a dispatch lambda, a
/// non-const Rng& passed across a function boundary inside one, and
/// re-seeding from a non-seed expression.
void CheckRngFlow(const RuleContext& ctx,
                  const std::vector<RngDecl>& decls,
                  std::vector<Diagnostic>* diagnostics);

/// float-determinism: FMA-contractable shapes in bit-equality kernel
/// files and float accumulation across ParallelFor tasks anywhere.
void CheckFloatDeterminism(const RuleContext& ctx,
                           std::vector<Diagnostic>* diagnostics);

/// One nested lock acquisition (outer, inner) observed in a function,
/// fed to the global ordering check.
struct LockOrderEdge {
  std::string first;   // mutex locked first
  std::string second;  // mutex locked while `first` is held
  std::string file;
  std::size_t line = 0;  // line of the inner acquisition
  bool allowed = false;  // suppressed via allow(lock-discipline)
};

/// lock-discipline per-file pass: guarded_by coverage inside methods,
/// plus collection of nested-acquisition edges for the global check.
void CheckLockDiscipline(const RuleContext& ctx,
                         std::vector<LockOrderEdge>* edges,
                         std::vector<Diagnostic>* diagnostics);

/// lock-discipline global pass: a mutex pair acquired in both orders
/// anywhere in the tree is a deadlock-shaped inconsistency.
void CheckLockOrdering(const std::vector<LockOrderEdge>& edges,
                       std::vector<Diagnostic>* diagnostics);

}  // namespace vrdlint

#endif  // VRDDRAM_TOOLS_VRDLINT_RULES_H
