/**
 * @file
 * The paper driver: runs the rows of the experiment table
 * (experiments.hh), all of them or the one --experiment names, as one
 * sweep over their distinct cells; prints each row's tables; then
 * judges each row's claims, one verdict line per claim. The last line
 * counts the claims that hold, deviate and fail, and names each
 * failing one; any failure exits 1.
 *
 *   ./build/bench/paper                              # every row, 4M
 *   ./build/bench/paper --experiment table5 --budget 500K
 */

#include "experiments.hh"

using namespace specfetch;
using namespace specfetch::bench;

namespace {

/** Claim counts of the run, and the name of each failure. */
struct Tally
{
    unsigned hold = 0, deviate = 0, fail = 0;
    std::vector<std::string> failing;
};

/** Judge @p claim of @p row, print its verdict lines and count it. */
void
judge(const Experiment &row, const Claim &claim, const View &view,
      Tally &tally)
{
    std::string name = row.name + "." + claim.name;
    std::vector<std::string> scopes = claim.profiles;
    if (scopes.empty())
        scopes.push_back("");
    std::vector<std::pair<std::string, Verdict>> broken;
    Verdict last;
    for (const std::string &profile : scopes) {
        last = claim.check(view.of(profile));
        if (!last.holds)
            broken.emplace_back(profile.empty() ? name
                                                : name + "[" + profile + "]",
                                last);
    }
    const bool marked = !claim.deviation.empty();
    if (broken.empty() && marked) {
        // A deviation that holds: the mark is stale.
        ++tally.fail;
        tally.failing.push_back(name);
        std::printf("  %-9s %s: holds, but is marked as %s\n", "FAILS",
                    name.c_str(), claim.deviation.c_str());
    } else if (broken.empty()) {
        ++tally.hold;
        std::printf("  %-9s %s: %s\n", "holds", name.c_str(),
                    claim.profiles.empty()
                        ? last.detail.c_str()
                        : (std::to_string(scopes.size()) + " profiles")
                              .c_str());
    } else {
        ++(marked ? tally.deviate : tally.fail);
        for (const auto &[scoped, verdict] : broken) {
            if (!marked)
                tally.failing.push_back(scoped);
            std::printf("  %-9s %s: %s%s\n", marked ? "deviates" : "FAILS",
                        scoped.c_str(), verdict.detail.c_str(),
                        marked ? (" (" + claim.deviation + ")").c_str() : "");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    for (const Experiment &row : experiments())
        names.push_back(row.name);
    BenchMain &bm = benchMain();
    if (!bm.parse(argc, argv, "paper",
                  "the paper's tables and figures, with their shape claims",
                  kDefaultBudget, /*suite=*/false, names)) {
        return parseExitCode();
    }

    std::vector<const Experiment *> rows;
    std::vector<RunSpec> specs;
    for (const Experiment &row : experiments()) {
        if (!bm.experiment.empty() && bm.experiment != row.name)
            continue;
        rows.push_back(&row);
        SimConfig base = row.base;
        base.instructionBudget = bm.budget;
        specs = specs + row.cells(base);
    }
    specs = distinct(specs);
    std::vector<Classification> classifications;
    std::vector<SimResults> results =
        runSweepReported(specs, &classifications);
    Cells cells = cellsOf(specs, results, classifications);

    Tally tally;
    for (const Experiment *row : rows) {
        SimConfig base = row->base;
        base.instructionBudget = bm.budget;
        if (row != rows.front())
            std::printf("\n");
        banner(row->title, row->what, base, row->name);
        View view{cells, base, ""};
        row->render(view);
        if (!row->claims.empty())
            std::printf("\nclaims:\n");
        for (const Claim &claim : row->claims)
            judge(*row, claim, view, tally);
    }
    std::printf("\nclaims: %u hold, %u deviate, %u fail", tally.hold,
                tally.deviate, tally.fail);
    for (size_t i = 0; i < tally.failing.size(); ++i) {
        std::printf("%s%s", i == 0 ? ": " : ", ",
                    tally.failing[i].c_str());
    }
    std::printf("\n");
    return tally.fail == 0 ? 0 : 1;
}
