#include "warmup_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/log.h"
#include "src/ckpt/io.h"

namespace wsrs::ckpt {

namespace {

std::string
keyName(std::uint64_t key)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** RAII flock(2) on a dedicated lock file. */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
    {
        fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd_ < 0)
            fatalIo("cannot open warm-up cache lock '%s'", path.c_str());
        if (::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fatalIo("cannot lock warm-up cache lock '%s'", path.c_str());
        }
    }

    ~FileLock()
    {
        // flock releases with the descriptor; the lock file itself stays
        // (removing it would race a peer opening the same path).
        ::close(fd_);
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd_ = -1;
};

/** Validate @p blob as an intact wsrs-ckpt-v1 container (CRCs included);
 *  throws IoError with the byte offset of any damage. */
void
validateContainer(const std::string &blob, const std::string &origin)
{
    std::istringstream is(blob);
    CheckpointReader reader(is, origin);
    (void)reader;
}

} // namespace

WarmupCache::WarmupCache(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatalIo("cannot create warm-up cache directory '%s': %s",
                dir_.c_str(), ec.message().c_str());
}

std::string
WarmupCache::entryPath(std::uint64_t key) const
{
    return dir_ + "/warmup-" + keyName(key) + ".ckpt";
}

bool
WarmupCache::contains(std::uint64_t key) const
{
    return std::filesystem::exists(entryPath(key));
}

std::string
WarmupCache::load(std::uint64_t key) const
{
    const std::string path = entryPath(key);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatalIo("cannot open warm-up cache entry '%s'", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string blob = buf.str();
    validateContainer(blob, path);
    return blob;
}

std::shared_ptr<const std::string>
WarmupCache::getOrBuild(std::uint64_t key, const Builder &build,
                        Source *source)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lk(mapMu_);
        auto &s = slots_[key];
        if (!s)
            s = std::make_shared<Slot>();
        slot = s;
    }
    std::lock_guard<std::mutex> lk(slot->mu);
    Source from = Source::Memory;
    if (slot->blob)
        hits_.fetch_add(1);
    else
        slot->blob = std::make_shared<const std::string>(
            loadOrBuild(key, build, from));
    if (source)
        *source = from;
    return slot->blob;
}

std::string
WarmupCache::loadOrBuild(std::uint64_t key, const Builder &build,
                         Source &source)
{
    if (dir_.empty()) {
        source = Source::Built;
        misses_.fetch_add(1);
        return build();
    }
    const std::string path = entryPath(key);
    // Fast path: a published entry needs no lock (publish is atomic).
    const auto tryLoad = [&]() -> std::string {
        std::string blob = load(key);
        hits_.fetch_add(1);
        source = Source::Disk;
        return blob;
    };
    if (std::filesystem::exists(path)) {
        try {
            return tryLoad();
        } catch (const IoError &e) {
            // Half-written or damaged entry: keep the diagnostics visible,
            // quarantine the bytes for postmortem, and fall through to the
            // locked rebuild path.
            std::fprintf(stderr,
                         "wsrs-svc: corrupt warm-up cache entry: %s — "
                         "quarantining and rebuilding\n",
                         e.what());
            corruptRebuilds_.fetch_add(1);
            std::error_code ec;
            std::filesystem::rename(path, path + ".corrupt", ec);
            if (ec)
                std::filesystem::remove(path, ec);
        }
    }

    FileLock lock(dir_ + "/warmup-" + keyName(key) + ".lock");
    // Recheck under the lock: a peer may have (re)built the entry while
    // we waited.
    if (std::filesystem::exists(path)) {
        try {
            return tryLoad();
        } catch (const IoError &) {
            corruptRebuilds_.fetch_add(1);
            std::error_code ec;
            std::filesystem::remove(path, ec);
        }
    }
    source = Source::Built;
    misses_.fetch_add(1);
    std::string blob = build();
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
        os.flush();
        if (!os)
            fatalIo("cannot write warm-up cache entry '%s'", tmp.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        fatalIo("cannot publish warm-up cache entry '%s'", path.c_str());
    }
    return blob;
}

} // namespace wsrs::ckpt
