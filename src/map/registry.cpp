#include "map/registry.hpp"

#include <cmath>

#include "approx/approx_mapper.hpp"
#include "map/column_permutation_mapper.hpp"
#include "map/exact_mapper.hpp"
#include "map/fast_exact_mapper.hpp"
#include "map/greedy_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "sat/sat_mapper.hpp"
#include "util/error.hpp"

namespace mcx {

const std::vector<MapperPreset>& mapperPresets() {
  static const std::vector<MapperPreset> presets = {
      {"hba", "the paper's hybrid algorithm (Algorithm 1) with backtracking",
       [] { return std::make_shared<HybridMapper>(); }},
      {"hba-nobt", "HBA without phase-1 backtracking (ablation A3)",
       [] {
         HybridMapperOptions opts;
         opts.backtracking = false;
         return std::make_shared<HybridMapper>(opts);
       }},
      {"hba-paper", "HBA with the paper's exact top-to-bottom greedy order",
       [] {
         HybridMapperOptions opts;
         opts.sortByCandidates = false;
         return std::make_shared<HybridMapper>(opts);
       }},
      {"ea", "exact algorithm via the Hopcroft-Karp feasibility fast path",
       [] { return std::make_shared<ExactMapper>(); }},
      {"ea-munkres", "the paper's exact algorithm with the O(n^3) Munkres solver",
       [] {
         ExactMapperOptions opts;
         opts.useMunkres = true;
         return std::make_shared<ExactMapper>(opts);
       }},
      {"fast-ea", "exact feasibility as one maximum bipartite matching",
       [] { return std::make_shared<FastExactMapper>(); }},
      {"greedy", "first-fit baseline: no backtracking, no assignment step",
       [] { return std::make_shared<GreedyMapper>(); }},
      {"colperm", "input-column permutation search around an inner HBA",
       [] { return std::make_shared<ColumnPermutationMapper>(); }},
      {"sat",
       "exact SAT backend (CDCL + cube-and-conquer); spec: {\"mapper\":\"sat\","
       "\"cubeDepth\":2,\"conflictLimit\":10000,\"learn\":true,\"parallelCubes\":false}",
       [] { return std::make_shared<SatMapper>(); }},
      {"approx",
       "graded mapper: exact inner attempt, then sacrifice lowest-weight cubes "
       "within an error budget; spec: {\"mapper\":\"approx\",\"inner\":\"fast-ea\","
       "\"epsilon\":1.0}",
       [] { return std::make_shared<ApproxMapper>(); }},
  };
  return presets;
}

const MapperPreset* findMapperPreset(const std::string& name) {
  return findPreset(mapperPresets(), name);
}

std::shared_ptr<const IMapper> mapperFromSpec(const SpecValue& spec) {
  if (!spec.isObject()) throw ParseError("mapper spec: expected a JSON object");
  const auto onlyKeys = [&spec](std::initializer_list<const char*> allowed) {
    requireOnlyKeys(spec, "mapper spec: ", allowed);
  };

  if (spec.find("preset") != nullptr) {
    onlyKeys({"preset"});
    return requirePreset(mapperPresets(), spec.stringOr("preset", ""), "mapper").make();
  }

  const std::string mapper = spec.stringOr("mapper", "");
  if (mapper == "hba") {
    onlyKeys({"mapper", "backtracking", "sortByCandidates"});
    HybridMapperOptions opts;
    opts.backtracking = spec.boolOr("backtracking", opts.backtracking);
    opts.sortByCandidates = spec.boolOr("sortByCandidates", opts.sortByCandidates);
    return std::make_shared<HybridMapper>(opts);
  }
  if (mapper == "ea") {
    onlyKeys({"mapper", "munkres"});
    ExactMapperOptions opts;
    opts.useMunkres = spec.boolOr("munkres", opts.useMunkres);
    return std::make_shared<ExactMapper>(opts);
  }
  if (mapper == "fast-ea") {
    onlyKeys({"mapper"});
    return std::make_shared<FastExactMapper>();
  }
  if (mapper == "greedy") {
    onlyKeys({"mapper"});
    return std::make_shared<GreedyMapper>();
  }
  if (mapper == "sat") {
    onlyKeys({"mapper", "cubeDepth", "conflictLimit", "learn", "parallelCubes"});
    SatMapperOptions opts;
    const double depth = spec.numberOr("cubeDepth", static_cast<double>(opts.cubeDepth));
    if (!(depth >= 0.0) || depth > 16.0 || depth != std::floor(depth))
      throw ParseError("mapper spec: \"cubeDepth\" must be an integer in [0, 16]");
    opts.cubeDepth = static_cast<std::size_t>(depth);
    const double limit = spec.numberOr("conflictLimit", static_cast<double>(opts.conflictLimit));
    if (!(limit >= 0.0) || limit > 9007199254740992.0 || limit != std::floor(limit))  // 2^53
      throw ParseError("mapper spec: \"conflictLimit\" must be a non-negative integer below 2^53");
    opts.conflictLimit = static_cast<std::uint64_t>(limit);
    opts.learn = spec.boolOr("learn", opts.learn);
    opts.parallelCubes = spec.boolOr("parallelCubes", opts.parallelCubes);
    return std::make_shared<SatMapper>(opts);
  }
  if (mapper == "approx") {
    onlyKeys({"mapper", "inner", "epsilon"});
    ApproxMapperOptions opts;
    const double epsilon = spec.numberOr("epsilon", opts.epsilon);
    if (!(epsilon >= 0.0) || epsilon > 1.0)
      throw ParseError("mapper spec: \"epsilon\" must be in [0, 1]");
    opts.epsilon = epsilon;
    const SpecValue* inner = spec.find("inner");
    return std::make_shared<ApproxMapper>(opts, inner ? makeMapper(*inner) : nullptr);
  }
  if (mapper == "colperm") {
    onlyKeys({"mapper", "restarts", "seed", "inner"});
    ColumnPermutationOptions opts;
    const double restarts = spec.numberOr("restarts", static_cast<double>(opts.restarts));
    if (restarts < 0.0 || restarts > 1e6)
      throw ParseError("mapper spec: \"restarts\" out of range");
    opts.restarts = static_cast<std::size_t>(restarts);
    const double seed = spec.numberOr("seed", static_cast<double>(opts.seed));
    if (seed < 0.0 || seed > 9007199254740992.0)  // 2^53
      throw ParseError("mapper spec: \"seed\" must be an integer below 2^53");
    opts.seed = static_cast<std::uint64_t>(seed);
    const SpecValue* inner = spec.find("inner");
    return std::make_shared<ColumnPermutationMapper>(opts, inner ? makeMapper(*inner) : nullptr);
  }
  throw ParseError("mapper spec: unknown mapper \"" + mapper + "\"");
}

std::shared_ptr<const IMapper> makeMapper(const std::string& nameOrSpec) {
  if (isInlineSpec(nameOrSpec)) return mapperFromSpec(parseSpec(nameOrSpec));
  return requirePreset(mapperPresets(), nameOrSpec, "mapper").make();
}

std::shared_ptr<const IMapper> makeMapper(const SpecValue& nameOrSpec) {
  if (nameOrSpec.kind == SpecValue::Kind::String) return makeMapper(nameOrSpec.string);
  if (!nameOrSpec.isObject()) throw ParseError("mapper spec: expected a name or a JSON object");
  return mapperFromSpec(nameOrSpec);
}

}  // namespace mcx
