package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** What one Spark solve caused, as seen by a [[SparkCounters]] listener. */
final case class SparkSolve(jobs: Int, stages: Int, tasks: Int,
                            shuffleWriteBytes: Long, taskCpuNs: Long,
                            wallMs: Double, nonTaskMs: Double, lastJobMs: Double,
                            rddsLeft: Int)

/** A `SparkListener` the benchmark registers on its own session. Around a
  * solve it collects jobs, stages, tasks, shuffle bytes written, executor
  * CPU time and the task intervals; the counters are read only after the
  * listener has seen the end of a marker job submitted after the solve.
  * Listener events arrive in order, so by then every event of the solve has
  * been received.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters.MarkerProperty

  private var jobs, stages, tasks = 0
  private var shuffleWrite, cpuNs = 0L
  private val taskSpans = mutable.ArrayBuffer.empty[(Long, Long)]
  private var lastJobStart = 0L
  private val markerStages = mutable.Set.empty[Int]
  private var markerJob = -1
  private var markerDone: CountDownLatch = _

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (e.properties != null && e.properties.getProperty(MarkerProperty) != null) {
      markerJob = e.jobId; markerStages ++= e.stageIds
    } else { jobs += 1; lastJobStart = e.time }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob && markerDone != null) markerDone.countDown()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (!markerStages.contains(e.stageInfo.stageId)) stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId)) {
      tasks += 1
      taskSpans += ((e.taskInfo.launchTime, e.taskInfo.finishTime))
      val m = e.taskMetrics
      if (m != null) {
        shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        cpuNs += m.executorCpuTime
      }
    }
  }

  private def reset(): Unit = synchronized {
    jobs = 0; stages = 0; tasks = 0; shuffleWrite = 0; cpuNs = 0
    taskSpans.clear(); lastJobStart = 0; markerStages.clear(); markerJob = -1
  }

  /** Run `solve` between two drains of the listener and return what the
    * solve caused.
    * `rddsLeft` is the number of persisted RDDs the solve added and did not
    * release, counted as soon as it returns.
    */
  def measure[A](solve: => A): (A, SparkSolve) = {
    drain()
    reset()
    val before = sc.getPersistentRDDs.size
    val t0 = System.currentTimeMillis()
    val t0n = System.nanoTime()
    val out = solve
    val wallMs = (System.nanoTime() - t0n) / 1e6
    val t1 = System.currentTimeMillis()
    val rddsLeft = sc.getPersistentRDDs.size - before
    drain()
    synchronized {
      (out, SparkSolve(jobs, stages, tasks, shuffleWrite, cpuNs, wallMs,
        nonTaskMs = math.max(0.0, wallMs - covered(t0, t1)),
        lastJobMs = if (jobs == 0) 0.0 else math.max(0L, t1 - lastJobStart).toDouble,
        rddsLeft = rddsLeft))
    }
  }

  /** Milliseconds of [t0, t1] during which at least one task ran. */
  private def covered(t0: Long, t1: Long): Long = {
    val spans = taskSpans.map { case (a, b) => (math.max(a, t0), math.min(b, t1)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L; var end = Long.MinValue
    spans.foreach { case (a, b) =>
      if (a >= end) { total += b - a; end = b }
      else if (b > end) { total += b - end; end = b }
    }
    total
  }

  private def drain(): Unit = {
    val latch = new CountDownLatch(1)
    synchronized { markerDone = latch }
    sc.setLocalProperty(MarkerProperty, "1")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerProperty, null)
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener did not receive the marker job")
  }
}

object SparkCounters {
  private val MarkerProperty = "perfbench.marker"
}
