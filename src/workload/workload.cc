#include "workload/workload.hh"

#include <map>
#include <mutex>

#include "util/logging.hh"
#include "workload/cfg_builder.hh"
#include "workload/layout.hh"
#include "workload/registry.hh"

namespace specfetch {

Workload
buildWorkload(const WorkloadProfile &profile)
{
    CfgBuilder builder(profile);
    Cfg cfg = builder.build();
    ProgramImage image = layoutProgram(cfg);
    return Workload{profile, std::move(cfg), std::move(image)};
}

namespace {

/** @p name's workload, built by @p build on the name's first call. */
std::shared_ptr<const Workload>
memoized(const std::string &name, const std::function<Workload()> &build)
{
    // One entry per name asked for (an unknown name's build fails and
    // leaves its entry empty). The map's mutex guards only the lookup;
    // each entry's own mutex is held during its build, so distinct
    // names build concurrently and concurrent callers of one name wait
    // for its single build.
    struct Memo
    {
        std::mutex build;
        std::shared_ptr<const Workload> workload;
    };
    static std::mutex mutex;
    static std::map<std::string, Memo> cache;

    Memo *memo = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        memo = &cache[name];
    }
    std::lock_guard<std::mutex> lock(memo->build);
    if (!memo->workload)
        memo->workload = std::make_shared<const Workload>(build());
    return memo->workload;
}

} // namespace

std::shared_ptr<const Workload>
sharedWorkload(const std::string &benchmark)
{
    return memoized(benchmark,
                    [&] { return buildWorkload(getProfile(benchmark)); });
}

std::shared_ptr<const Workload>
sharedWorkload(const std::string &name,
               const std::function<Workload()> &build)
{
    panic_if(isBenchmark(name),
             "'%s' is a registered benchmark; only its profile builds it",
             name.c_str());
    return memoized(name, [&] {
        Workload workload = build();
        workload.profile.name = name;
        return workload;
    });
}

} // namespace specfetch
