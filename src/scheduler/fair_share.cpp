#include "scheduler/fair_share.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace scheduler {

FairShareController::FairShareController(Config config)
    : tolerance(config.starvationTolerance),
      preemptTimeoutS(config.preemptionTimeoutS)
{
    if (config.tenants.empty())
        config.tenants.emplace_back(); // the implicit tenant
    classes.reserve(config.tenants.size());
    for (Tenant &tenant : config.tenants) {
        HELIX_ASSERT(tenant.weight > 0.0);
        ClassState cls;
        cls.spec = std::move(tenant);
        classes.push_back(std::move(cls));
    }
}

void
FairShareController::enqueue(int t, int request_index)
{
    classes[static_cast<size_t>(t)].queue.push_back(request_index);
}

void
FairShareController::requeueFront(int t, int request_index)
{
    classes[static_cast<size_t>(t)].queue.push_front(request_index);
}

void
FairShareController::onAdmitted(int t)
{
    ++classes[static_cast<size_t>(t)].inFlight;
}

void
FairShareController::onFinished(int t)
{
    ClassState &cls = classes[static_cast<size_t>(t)];
    HELIX_ASSERT(cls.inFlight > 0);
    --cls.inFlight;
}

void
FairShareController::noteDecodeToken(int t, double now)
{
    if (!active())
        return;
    ClassState &cls = classes[static_cast<size_t>(t)];
    double dt = now - cls.decayedAt;
    if (dt > 0.0) {
        cls.decayed *= std::exp(-dt / kThroughputEwmaTauS);
        cls.decayedAt = now;
    }
    cls.decayed += 1.0;
}

double
FairShareController::usageRate(int t, double now) const
{
    const ClassState &cls = classes[static_cast<size_t>(t)];
    double mass = cls.decayed;
    double dt = now - cls.decayedAt;
    if (dt > 0.0)
        mass *= std::exp(-dt / kThroughputEwmaTauS);
    return mass / kThroughputEwmaTauS;
}

double
FairShareController::demandingWeight() const
{
    double demanding_sum = 0.0;
    double total = 0.0;
    for (const ClassState &cls : classes) {
        total += cls.spec.weight;
        if (demanding(cls))
            demanding_sum += cls.spec.weight;
    }
    return demanding_sum > 0.0 ? demanding_sum : total;
}

double
FairShareController::fairShare(int t) const
{
    double weight_sum = demandingWeight();
    if (weight_sum <= 0.0 || capacity <= 0.0)
        return 0.0;
    return classes[static_cast<size_t>(t)].spec.weight / weight_sum *
           capacity;
}

double
FairShareController::normalizedUsage(int t, double now) const
{
    double usage = usageRate(t, now);
    double share = fairShare(t);
    if (share > 0.0)
        return usage / share;
    return usage > 0.0 ? std::numeric_limits<double>::infinity()
                       : 0.0;
}

int
FairShareController::popNext(double now)
{
    const int pick = active() ? pickTenant(now) : 0;
    if (pick < 0)
        return -1;
    ClassState &cls = classes[static_cast<size_t>(pick)];
    if (cls.queue.empty())
        return -1;
    int request_index = cls.queue.front();
    cls.queue.pop_front();
    return request_index;
}

int
FairShareController::pickTenant(double now) const
{
    // Does anyone sit below fair share? Only then are over-share
    // tenants held back; with every demanding tenant at or above
    // share there is no one to protect, so work-conservation wins.
    bool someone_below = false;
    for (size_t t = 0; t < classes.size(); ++t) {
        if (demanding(classes[t]) &&
            normalizedUsage(static_cast<int>(t), now) < 1.0) {
            someone_below = true;
            break;
        }
    }
    int best = -1;
    double best_usage = 0.0;
    for (size_t t = 0; t < classes.size(); ++t) {
        if (classes[t].queue.empty())
            continue;
        double normalized = normalizedUsage(static_cast<int>(t), now);
        if (someone_below && normalized > 1.0 + tolerance)
            continue; // held: over share while someone is starved
        if (best < 0 || normalized < best_usage) {
            best = static_cast<int>(t);
            best_usage = normalized;
        }
    }
    return best;
}

int
FairShareController::checkPreemption(double now)
{
    if (!active() || preemptTimeoutS < 0.0)
        return -1;
    // Sweep the continuous-starvation clocks.
    int starving = -1;
    for (size_t t = 0; t < classes.size(); ++t) {
        ClassState &cls = classes[t];
        bool starved =
            demanding(cls) &&
            normalizedUsage(static_cast<int>(t), now) < tolerance;
        if (!starved) {
            cls.starvingSince = -1.0;
            continue;
        }
        if (cls.starvingSince < 0.0)
            cls.starvingSince = now;
        if (now - cls.starvingSince >= preemptTimeoutS &&
            starving < 0) {
            starving = static_cast<int>(t);
        }
    }
    if (starving < 0)
        return -1;
    // Victim class: the most over-share tenant with in-flight work.
    int victim = -1;
    double victim_usage = 0.0;
    for (size_t t = 0; t < classes.size(); ++t) {
        if (static_cast<int>(t) == starving ||
            classes[t].inFlight <= 0)
            continue;
        double normalized = normalizedUsage(static_cast<int>(t), now);
        if (normalized <= 1.0 + tolerance)
            continue;
        if (victim < 0 || normalized > victim_usage) {
            victim = static_cast<int>(t);
            victim_usage = normalized;
        }
    }
    if (victim < 0)
        return -1;
    // Re-arm: one preemption per starvation interval.
    classes[static_cast<size_t>(starving)].starvingSince = -1.0;
    return victim;
}

} // namespace scheduler
} // namespace helix
