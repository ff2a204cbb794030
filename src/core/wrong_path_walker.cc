#include "core/wrong_path_walker.hh"

#include <algorithm>

#include "obs/set_heatmap.hh"

namespace specfetch {

namespace {

/** Sentinel that can never equal a line address. */
constexpr Addr kNoLine = ~Addr{0};

} // namespace

Slot
WrongPathWalker::walk(Addr start_pc, Slot from, Slot window_end,
                      size_t unresolved)
{
    // Hoist every per-walk-invariant configuration load: the loop
    // below runs once per wrong-path instruction, squarely inside the
    // simulator's hot path.
    const FetchPolicy policy = config.policy;
    const Slot fill_slots = config.missPenaltySlots();
    const Slot decode_slots = config.decodeSlots();
    const size_t max_unresolved = config.maxUnresolved;
    const bool aggressive_prefetch =
        prefetcher != nullptr && prefetchesOnWrongPath(policy);
    const Addr line_bytes = cache.lineBytes();

    Slot slot = from;
    Addr wpc = start_pc;
    Addr cur_line = kNoLine;
    size_t wrong_cond = 0;

    while (slot < window_end) {
        Addr line = cache.lineOf(wpc);
        if (line != cur_line) {
            if (stats)
                ++stats->wrongAccesses;
            if (heatmap)
                heatmap->wrongAccess(line);
            bool hit = cache.access(line);

            if (!hit && resumeBuffer.matches(line)) {
                // The line is already on its way (an earlier wrong-path
                // fill). Wait for the data if it has not arrived.
                if (resumeBuffer.readyAt() > slot) {
                    if (resumeBuffer.readyAt() >= window_end)
                        return window_end;
                    slot = resumeBuffer.readyAt();
                }
                hit = true;
            } else if (!hit && prefetcher &&
                       prefetcher->buffer().matches(line)) {
                if (prefetcher->buffer().readyAt() > slot) {
                    if (prefetcher->buffer().readyAt() >= window_end)
                        return window_end;
                    slot = prefetcher->buffer().readyAt();
                }
                hit = true;
            }

            // On-chip victim swap: only policies that service
            // wrong-path misses act on it (for Oracle/Pessimistic a
            // swap would mutate L1 content on the wrong path).
            if (!hit && victimCache &&
                servicesWrongPathMisses(policy) &&
                victimCache->probe(line)) {
                Slot done = slot + victimHitSlots;
                cache.insert(line);
                if (done >= window_end)
                    return window_end;
                slot = done;
                hit = true;
            }

            if (!hit) {
                if (stats)
                    ++stats->wrongMisses;
                if (heatmap)
                    heatmap->wrongMiss(line);

                // When can this policy start the fill?
                Slot serviceable = slot;
                switch (policy) {
                  case FetchPolicy::Oracle:
                  case FetchPolicy::Pessimistic:
                    // Waiting for resolve means waiting for the
                    // redirect: the miss is squashed, never serviced.
                    return window_end;
                  case FetchPolicy::Optimistic:
                  case FetchPolicy::Resume:
                    serviceable = slot;
                    break;
                  case FetchPolicy::Decode:
                    // Wait until every previous instruction decoded:
                    // the instruction fetched one slot earlier proves
                    // decodeable (not misfetched) decodeSlots later.
                    // Inside a misfetch window this lands at or past
                    // the redirect, so misfetch-path misses are never
                    // serviced — exactly the policy's intent.
                    serviceable = slot + decode_slots;
                    break;
                }

                Slot start = std::max(serviceable, bus.freeAt());
                if (start >= window_end) {
                    // The redirect arrives before the request could
                    // even be issued: it is squashed.
                    return window_end;
                }

                Slot done = bus.acquire(start, hierarchy.fillSlots(line));
                if (stats)
                    ++stats->wrongFills;
                if (observer) {
                    // SPECFETCH-ALLOW(loop-virtual): virtual per wrong-path fill, not per instruction, and only the miss classifier attaches an observer
                    observer->onWrongPathMiss(line);
                }

                if (policy == FetchPolicy::Resume) {
                    // "Storing the line in the cache will take place
                    // at the next I-cache miss": retire the previous
                    // occupant, then track this fill. The redirect is
                    // never delayed.
                    resumeBuffer.drainIfReady(cache, start);
                    resumeBuffer.set(line, done);
                    // Buffered fill: the array write (and so the
                    // eviction) is deferred to a later miss.
                    if (heatmap)
                        heatmap->wrongFill(line, nullptr);
                    if (done >= window_end)
                        return window_end;
                    slot = done;
                } else {
                    // Blocking fill (Optimistic/Decode): the line is
                    // installed, and if it outlasts the window the
                    // front end is stuck until it arrives.
                    Eviction evicted = cache.insert(line);
                    if (heatmap)
                        heatmap->wrongFill(line, &evicted);
                    if (aggressive_prefetch)
                        prefetcher->onAccess(line, done, fill_slots);
                    if (done >= window_end)
                        return done;
                    slot = done;
                }
            } else if (aggressive_prefetch) {
                prefetcher->onAccess(line, slot, fill_slots);
            }
            cur_line = line;
        }

        // Execute the wrong-path instruction occupying this slot.
        StaticInst inst = image.at(wpc);
        switch (inst.cls) {
          case InstClass::Plain: {
            // A plain stretch does nothing but advance wpc and the
            // slot clock, so step over the whole run at once — capped
            // at the line end (the next line must be probed) and the
            // window end. Identical, state-free iterations collapsed;
            // cur_line == lineOf(wpc) here, so the line-end cap is
            // exact. DESIGN.md §14.
            uint64_t step = std::min<uint64_t>(
                {image.plainRunAt(wpc),
                 (cur_line + line_bytes - wpc) / kInstBytes,
                 static_cast<uint64_t>(window_end - slot)});
            wpc += step * kInstBytes;
            slot += step;
            continue;
          }

          case InstClass::CondBranch: {
            // Wrong-path branches consume speculation depth too.
            if (unresolved + wrong_cond >= max_unresolved)
                return window_end;
            ++wrong_cond;
            Prediction p = predictor.predict(wpc, inst.cls);
            // Speculative decode-time BTB update happens on wrong
            // paths as well (paper §4.1).
            predictor.onDecode(wpc, inst, p.taken);
            if (p.taken) {
                // If the BTB missed, decode supplies the static
                // target two cycles later; we elide that bubble on
                // the already-doomed path.
                wpc = p.targetKnown ? p.target : inst.target;
                cur_line = kNoLine;
            } else {
                wpc += kInstBytes;
            }
            break;
          }

          case InstClass::Jump:
          case InstClass::Call: {
            Prediction p = predictor.predict(wpc, inst.cls);
            predictor.onDecode(wpc, inst, true);
            wpc = inst.target;
            cur_line = kNoLine;
            (void)p;
            break;
          }

          case InstClass::Return:
          case InstClass::IndirectJump:
          case InstClass::IndirectCall: {
            // No static target: fetch can only continue if the
            // BTB/RAS supplies one; otherwise it idles until the
            // redirect.
            Prediction p = predictor.predict(wpc, inst.cls);
            if (!p.targetKnown)
                return window_end;
            wpc = p.target;
            cur_line = kNoLine;
            break;
          }
        }
        ++slot;
    }

    return window_end;
}

} // namespace specfetch
