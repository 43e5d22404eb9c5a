#include "inputs.h"

#include <cstdio>
#include <set>

#include "dspstone/kernels.h"
#include "ir/builder.h"
#include "models/workload.h"
#include "testgen/modelgen.h"
#include "testgen/programgen.h"

namespace perfbench {

using namespace record;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  testgen::Rng rng(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1));
  return rng.next();
}

std::uint64_t digest(const std::vector<std::string>& parts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& s : parts) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
    h = (h ^ 0xff) * 0x100000001b3ull;
  }
  return h;
}

std::vector<std::string> builtin_models() {
  std::vector<std::string> out;
  for (const models::ChainShape& s : models::kChainShapes)
    out.emplace_back(s.model);
  return out;
}

namespace {

/// models::chain_program plus a trailing constant term.
ir::Program chain_with_constant(const models::ChainShape& s, int k,
                                std::int64_t c) {
  ir::ProgramBuilder b(std::string(s.model) + "_chain" + std::to_string(k) +
                       "_c" + std::to_string(c));
  b.reg("acc", s.acc);
  ir::ExprPtr sum;
  for (int i = 0; i < k; ++i) {
    std::string v = "m" + std::to_string(i);
    b.cell(v, s.mem1, i % 16);
    sum = sum ? ir::e_add(std::move(sum), ir::e_var(v)) : ir::e_var(v);
  }
  b.let("acc", ir::e_add(std::move(sum), ir::e_const(c)));
  return b.take();
}

ProgramSpec spec(std::string model, ir::Program prog) {
  ProgramSpec p;
  p.model = std::move(model);
  p.name = prog.name();
  p.kernel = testgen::kernel_text(prog);
  p.program = std::make_shared<const ir::Program>(std::move(prog));
  return p;
}

}  // namespace

std::vector<ProgramSpec> builtin_mix(std::uint64_t seed) {
  constexpr int kConstantsPerModel = 6;
  std::vector<ProgramSpec> mix;
  for (const models::ChainShape& s : models::kChainShapes)
    for (int k : {8, 32})
      mix.push_back(spec(s.model, models::chain_program(s, k)));
  for (const std::string& name : dspstone::kernel_names())
    mix.push_back(spec("tms320c25", dspstone::kernel(name)));
  testgen::Rng rng(sub_seed(seed, 1));
  for (const models::ChainShape& s : models::kChainShapes) {
    if (s.mem2[0] != '\0') continue;  // bass_boost, tms320c25: no cover
    // Half the variants at each chain length, so the seed moves only the
    // constants and the mix's size stays the same.
    std::set<std::int64_t> drawn;
    while (static_cast<int>(drawn.size()) < kConstantsPerModel) {
      const std::int64_t c = rng.range(1, 120);
      if (!drawn.insert(c).second) continue;
      const int k = drawn.size() % 2 ? 8 : 32;
      mix.push_back(spec(s.model, chain_with_constant(s, k, c)));
    }
  }
  return mix;
}

Output output_of(const core::CompileResult& result) {
  Output out;
  out.words = result.code_size();
  for (const emit::EncodedWord& w : result.encoded.assembly.words) {
    out.encoding += w.hex();
    out.encoding += ' ';
  }
  out.listing = result.listing();
  return out;
}

bool check_program(const std::string& name, const ir::Program& prog,
                   const core::CompileResult& result,
                   const core::RetargetResult& target,
                   const sim::CheckOptions& options, Report& report,
                   SemanticTally& tally) {
  sim::CheckReport chk = sim::check_semantics(prog, result, target, options);
  switch (chk.status) {
    case sim::CheckStatus::kAgree:
      ++tally.agreed;
      return true;
    case sim::CheckStatus::kSkipped:
      if (chk.detail.empty()) break;  // a skip must name its reason
      ++tally.skips[chk.detail];
      return true;
    case sim::CheckStatus::kDiverged:
    case sim::CheckStatus::kDecodeReject:
      break;
  }
  report.fail(name + ": semantic check " +
              std::string(sim::to_string(chk.status)) + ": " + chk.detail);
  return false;
}

void SemanticTally::print() const {
  std::printf("semantic check: %zu agree", agreed);
  for (const auto& [reason, n] : skips)
    std::printf(", %d skipped (%s)", n, reason.c_str());
  std::printf("\n");
}

}  // namespace perfbench
