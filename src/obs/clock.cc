#include "obs/clock.hh"

#include <chrono>
#include <cstdio>
#include <ctime>

namespace lsim
{
namespace obs
{

namespace
{

std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

} // namespace

std::uint64_t
monotonicMicros()
{
    const auto now = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - processEpoch())
            .count());
}

std::string
isoTimestampNow()
{
    using namespace std::chrono;
    const auto now = system_clock::now();
    const std::time_t secs = system_clock::to_time_t(now);
    const auto ms =
        duration_cast<milliseconds>(now.time_since_epoch()).count() %
        1000;

    std::tm tm{};
    gmtime_r(&secs, &tm);
    // The format's worst case: seven ints of up to 11 characters
    // each ("-2147483648"), seven separators and the NUL. A real
    // stamp is 24 characters.
    char buf[7 * 11 + 7 + 1];
    std::snprintf(buf, sizeof(buf),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec,
                  static_cast<int>(ms));
    return buf;
}

} // namespace obs
} // namespace lsim
