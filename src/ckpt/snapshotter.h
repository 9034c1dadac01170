/**
 * @file
 * Interface implemented by every stateful simulator component that can be
 * checkpointed.
 *
 * The contract is strict determinism: after `restore(r)` into an object
 * constructed with the *same configuration parameters* as the snapshot
 * source, all future observable behavior must be bit-identical to the
 * original object's. Configuration itself (geometries, sizes, policies) is
 * NOT part of a snapshot — components write just enough of it to validate
 * that the restore target matches, and fail loudly when it does not.
 *
 * Implementations list their fields once, in a private static
 * `transfer(self, io)` template that both hooks call in one line (see
 * io.h for the helpers it uses).
 */
#pragma once

#include "src/ckpt/io.h"

namespace wsrs::ckpt {

/** Snapshot/restore hooks for one stateful component. */
class Snapshotter
{
  public:
    virtual ~Snapshotter() = default;

    /** Serialize all dynamic state into @p w. */
    virtual void snapshot(Writer &w) const = 0;

    /**
     * Overwrite all dynamic state from @p r. The object must have been
     * constructed with the same configuration as the snapshot source;
     * implementations validate what they can via Reader::fail.
     */
    virtual void restore(Reader &r) = 0;
};

} // namespace wsrs::ckpt
