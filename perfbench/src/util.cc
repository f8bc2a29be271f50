/**
 * @file
 * Host clocks, order statistics and the span recorder.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.ctxsw = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace
{

/** Index of the innermost open span on this thread. */
thread_local int tls_open_span = -1;

} // namespace

Tracer::Scope::Scope(Tracer *tracer, const char *name, int job,
                     std::uint64_t count)
    : tr(tracer && tracer->on ? tracer : nullptr), count(count)
{
    if (!tr)
        return;
    Span s;
    s.name = name;
    s.job = job;
    s.parent = tls_open_span;
    s.start = wallNow() - tr->origin;
    {
        std::lock_guard<std::mutex> lock(tr->mtx);
        index = static_cast<int>(tr->spanList.size());
        tr->spanList.push_back(std::move(s));
    }
    savedParent = tls_open_span;
    tls_open_span = index;
}

Tracer::Scope::~Scope()
{
    if (!tr)
        return;
    const double end = wallNow() - tr->origin;
    tls_open_span = savedParent;
    std::lock_guard<std::mutex> lock(tr->mtx);
    Span &s = tr->spanList[static_cast<std::size_t>(index)];
    s.end = end;
    s.count = count;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return spanList;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "[\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"job\": %d, \"parent\": %d, \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"count\": %llu",
                      s.job, s.parent, s.start, s.end,
                      static_cast<unsigned long long>(s.count));
        out << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", " << buf << "}" << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

} // namespace perfbench
