/**
 * @file
 * Atomic whole-file writes. Result and status files produced by the
 * batch daemon, and profile-store entries, are read by concurrent
 * pollers — scripts watching a results directory, a second daemon
 * sharing a cache — so they must never be observable half-written.
 * POSIX rename() within one directory is atomic: a reader sees
 * either the old file, no file, or the complete new contents.
 */

#ifndef LSIM_COMMON_FILES_HH
#define LSIM_COMMON_FILES_HH

#include <string>

namespace lsim
{

/**
 * Write @p data to @p path atomically: the bytes go to a uniquely
 * named temp file in the same directory, which is then renamed over
 * @p path. An existing file is replaced in one step; no reader ever
 * sees a partial write.
 *
 * @return true on success; false (after a warn()) when the temp file
 * cannot be written or installed. The destination is left untouched
 * on failure.
 */
bool atomicWriteFile(const std::string &path, const std::string &data);

} // namespace lsim

#endif // LSIM_COMMON_FILES_HH
