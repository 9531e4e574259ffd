#include "apps/apps.hpp"

namespace plast::apps
{

const std::vector<AppSpec> &
allApps()
{
    static const std::vector<AppSpec> specs = {
        {"InnerProduct", false,
         [](Scale s) { return makeInnerProduct(s, s == Scale::kTiny ? 2 : 4); }},
        {"OuterProduct", false,
         [](Scale s) { return makeOuterProduct(s); }},
        {"Black-Scholes", false,
         [](Scale s) { return makeBlackScholes(s, s == Scale::kTiny ? 2 : 2); }},
        {"TPC-H Query 6", false, [](Scale s) { return makeTpchQ6(s, s == Scale::kTiny ? 2 : 4); }},
        {"GEMM", false, [](Scale s) { return makeGemm(s); }},
        {"GDA", false, [](Scale s) { return makeGda(s); }},
        {"LogReg", false, [](Scale s) { return makeLogReg(s); }},
        {"SGD", false, [](Scale s) { return makeSgd(s); }},
        {"Kmeans", false, [](Scale s) { return makeKmeans(s); }},
        {"CNN", false, [](Scale s) { return makeCnn(s); }},
        {"SMDV", true, [](Scale s) { return makeSmdv(s); }},
        {"PageRank", true, [](Scale s) { return makePageRank(s); }},
        {"BFS", true, [](Scale s) { return makeBfs(s); }},
    };
    return specs;
}

const AppSpec *
findApp(std::string_view name)
{
    for (const AppSpec &spec : allApps())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

} // namespace plast::apps
