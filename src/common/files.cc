#include "common/files.hh"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fault.hh"
#include "common/logging.hh"

namespace lsim
{

namespace fs = std::filesystem;

bool
atomicWriteFile(const std::string &path, const std::string &data)
{
    int injected = 0;
    if (LSIM_FAULT_ERRNO("file.write", &injected)) {
        warn("atomicWriteFile: cannot write '%s': %s [injected]",
             path.c_str(), std::strerror(injected));
        return false;
    }
    // Unique temp name per process x call so concurrent writers
    // (threads or separate processes sharing a directory) never
    // collide; rename() within one directory is atomic on POSIX.
    static std::atomic<unsigned> counter{0};
    const std::string tmp = path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid())) + "." +
        std::to_string(counter.fetch_add(1));

    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("atomicWriteFile: cannot write '%s'", tmp.c_str());
            return false;
        }
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        out.flush();
        if (!out) {
            warn("atomicWriteFile: short write to '%s'", tmp.c_str());
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("atomicWriteFile: cannot install '%s': %s", path.c_str(),
             ec.message().c_str());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace lsim
