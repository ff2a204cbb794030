#include "hot.hh"

namespace specfetch {

struct Cache {
    int access(int line) { return line; }
};

int drive(Source& src, Cache& cache, int n) {
    int* scratch = new int(0);
    for (int i = 0; i < n; ++i) {
        *scratch += cache.access(i);
    }
    int inst = 0;
    for (int i = 0; i < n; ++i) {
        // SPECFETCH-ALLOW(loop-virtual): one dispatch per iteration, by design
        if (src.next(inst)) {
            *scratch += inst;
        }
    }
    for (int i = 0; i < n; ++i) *scratch += i;
    int* after = new int(1);
    int result = *scratch + *after;
    delete scratch;
    delete after;
    return result;
}

}  // namespace specfetch
