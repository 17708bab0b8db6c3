// Clean: tests may start threads of their own; the check covers src/.
#include <thread>

void probe()
{
    std::thread thread([] {});
    thread.join();
}
