"""Read-mostly e-commerce workload: snapshot queries next to an update stream.

Run with::

    python examples/read_mostly_ecommerce.py

The paper's Section 5 argues that the common deployment is a read-mostly
system: queries are executed locally on consistent snapshots while update
transactions are broadcast and applied everywhere.  This example models a
small shop — a product catalogue partitioned into conflict classes per
category, orders that decrement stock, and dashboard queries that scan
several categories — and demonstrates:

* queries never block or get blocked by the update stream;
* every query sees a consistent snapshot (stock never appears negative and
  totals always match an actual database state);
* update commit latency is unaffected by the query load.
"""

from repro import ClusterConfig, ProcedureRegistry, ReplicatedDatabase
from repro.metrics import summarize

CATEGORIES = 5
PRODUCTS_PER_CATEGORY = 10
INITIAL_STOCK = 50
ORDERS = 150
DASHBOARD_QUERIES = 60


def product_key(category: int, product: int) -> str:
    return f"cat{category}:product{product}"


def build_registry() -> ProcedureRegistry:
    registry = ProcedureRegistry()

    @registry.procedure(
        "place_order",
        conflict_class=lambda params: f"C_cat{params['category']}",
        duration=0.002,
    )
    def place_order(ctx, params):
        key = product_key(params["category"], params["product"])
        stock = ctx.read(key)
        if stock <= 0:
            # Out of stock: the transaction still commits but buys nothing
            # (stored procedures encapsulate the whole interaction).
            ctx.write(key, stock)
            return 0
        ctx.write(key, stock - 1)
        # Order counters live inside the category's own partition: different
        # conflict classes must update disjoint data (paper Section 2.3).
        ctx.increment(f"cat{params['category']}:orders")
        return 1

    @registry.procedure("stock_dashboard", is_query=True, duration=0.004)
    def stock_dashboard(ctx, params):
        total = 0
        for category in params["categories"]:
            for product in range(PRODUCTS_PER_CATEGORY):
                total += ctx.read(product_key(category, product))
        return total

    return registry


def initial_data():
    data = {
        product_key(category, product): INITIAL_STOCK
        for category in range(CATEGORIES)
        for product in range(PRODUCTS_PER_CATEGORY)
    }
    for category in range(CATEGORIES):
        data[f"cat{category}:orders"] = 0
    return data


def main() -> None:
    cluster = ReplicatedDatabase(
        ClusterConfig(site_count=4, seed=13),
        build_registry(),
        initial_data=initial_data(),
    )
    sites = cluster.site_ids()
    stream = cluster.kernel.random.stream("shop.workload")

    # Update stream: orders submitted from all sites.
    submit_at = 0.0
    for index in range(ORDERS):
        submit_at += stream.exponential(0.002)
        cluster.kernel.schedule_at(
            submit_at,
            lambda site=sites[index % 4],
            category=stream.randint(0, CATEGORIES - 1),
            product=stream.randint(0, PRODUCTS_PER_CATEGORY - 1): cluster.submit(
                site, "place_order", {"category": category, "product": product}
            ),
        )

    # Query stream: dashboards scanning 2-3 categories, executed locally.
    queries = []
    query_at = 0.0
    for index in range(DASHBOARD_QUERIES):
        query_at += stream.exponential(0.005)
        first = stream.randint(0, CATEGORIES - 1)
        span = stream.randint(2, 3)
        categories = sorted({(first + offset) % CATEGORIES for offset in range(span)})
        cluster.kernel.schedule_at(
            query_at,
            lambda site=sites[index % 4], categories=categories: queries.append(
                (categories, cluster.submit_query(site, "stock_dashboard", {"categories": categories}))
            ),
        )

    cluster.run_until_idle()

    update_latency = summarize(cluster.all_client_latencies())
    query_latency = summarize(
        [execution.latency for _, execution in queries if execution.latency is not None]
    )

    contents = cluster.replica("N1").database_contents()
    sold = sum(value for key, value in contents.items() if key.endswith(":orders"))
    total_stock = sum(
        value for key, value in contents.items() if ":product" in key
    )
    print("Read-mostly e-commerce workload over 4 replicas")
    print(f"  orders committed              : {cluster.committed_counts()['N1']}")
    print(f"  items sold                    : {sold}")
    print(f"  stock + sold == initial stock : "
          f"{total_stock + sold == CATEGORIES * PRODUCTS_PER_CATEGORY * INITIAL_STOCK}")
    print(f"  mean update commit latency    : {update_latency.mean * 1000:.2f} ms")
    print(f"  mean dashboard query latency  : {query_latency.mean * 1000:.2f} ms "
          f"({query_latency.count} queries)")
    print(f"  replicas identical            : {cluster.database_divergence() == {}}")

    # Consistency of snapshots: a dashboard over all categories taken now must
    # equal the converged stock total.
    final_dashboard = cluster.submit_query(
        "N3", "stock_dashboard", {"categories": list(range(CATEGORIES))}
    )
    cluster.run_until_idle()
    print(f"  final dashboard vs. storage   : {final_dashboard.result} vs. {total_stock}")


if __name__ == "__main__":
    main()
