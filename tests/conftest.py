import os
import subprocess
import sys

import pytest

# Reference meter-readings document: one meter, three readings of the
# three known types, all sharing one timestamp.
SAMPLE_XML = """<MeterReadings>
    <MeterReading>
        <Meter>
            <Names>
                <name>SM000999VG</name>
                <NameType>
                    <description>This is a meter identification number.</description>
                    <name>MeterID</name>
                </NameType>
            </Names>
        </Meter>
        <Readings>
            <timeStamp>2021-03-08T22:22:18Z</timeStamp>
            <value>17.8280</value>
            <ReadingType ref="0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0"/>
        </Readings>
        <Readings>
            <timeStamp>2021-03-08T22:22:18Z</timeStamp>
            <value>17.9735</value>
            <ReadingType ref="0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0"/>
        </Readings>
        <Readings>
            <timeStamp>2021-03-08T22:22:18Z</timeStamp>
            <value>16.3959</value>
            <ReadingType ref="0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0"/>
        </Readings>
    </MeterReading>
</MeterReadings>
"""

SAMPLE_FLAT_ROWS = [
    "MeterReadings MeterReading Meter Names name SM000999VG",
    "MeterReadings MeterReading Meter Names NameType description This is a meter identification number.",
    "MeterReadings MeterReading Meter Names NameType name MeterID",
    "MeterReadings MeterReading Readings timeStamp 2021-03-08T22:22:18Z",
    "MeterReadings MeterReading Readings value 17.8280",
    "MeterReadings MeterReading Readings ReadingType ref 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0",
    "MeterReadings MeterReading Readings timeStamp 2021-03-08T22:22:18Z",
    "MeterReadings MeterReading Readings value 17.9735",
    "MeterReadings MeterReading Readings ReadingType ref 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0",
    "MeterReadings MeterReading Readings timeStamp 2021-03-08T22:22:18Z",
    "MeterReadings MeterReading Readings value 16.3959",
    "MeterReadings MeterReading Readings ReadingType ref 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0",
]

MASTER_ROWS = [
    "0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 TYPE01",
    "0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 TYPE02",
    "0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03",
]

SAMPLE_PARSED_ROWS = [
    "SM000999VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 2021-03-08T22:22:18Z 17.8280",
    "SM000999VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 2021-03-08T22:22:18Z 17.9735",
    "SM000999VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 2021-03-08T22:22:18Z 16.3959",
]

SAMPLE_VALID_ROWS = [
    "SM000999VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-03-08T22:22:18Z 17.8280",
    "SM000999VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 TYPE02 2021-03-08T22:22:18Z 17.9735",
    "SM000999VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 TYPE01 2021-03-08T22:22:18Z 16.3959",
]

# First rows of a reference parsed file, as stage 1 emits them.
PARSED_HEAD_ROWS = [
    "SM000000689VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 2021-01-01T12:40:06Z 14.8361",
    "SM000000689VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 2021-01-01T12:40:06Z 7.4433",
    "SM000000689VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 2021-01-01T12:40:06Z 6.5668",
    "SM000000145VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 2021-01-01T08:54:15Z 19.7668",
    "SM000000145VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 2021-01-01T08:54:15Z 10.1405",
    "SM000000145VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 2021-01-01T08:54:15Z 6.9721",
    "SM000000453VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 2021-01-01T06:50:54Z 9.9979",
    "SM000000453VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 2021-01-01T06:50:54Z 19.0457",
    "SM000000453VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 2021-01-01T06:50:54Z 14.0774",
]

# The same rows after validation (type name joined in after the code).
VALID_HEAD_ROWS = [
    "SM000000689VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T12:40:06Z 14.8361",
    "SM000000689VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 TYPE02 2021-01-01T12:40:06Z 7.4433",
    "SM000000689VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 TYPE01 2021-01-01T12:40:06Z 6.5668",
    "SM000000145VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T08:54:15Z 19.7668",
    "SM000000145VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 TYPE02 2021-01-01T08:54:15Z 10.1405",
    "SM000000145VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 TYPE01 2021-01-01T08:54:15Z 6.9721",
    "SM000000453VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T06:50:54Z 9.9979",
    "SM000000453VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 TYPE02 2021-01-01T06:50:54Z 19.0457",
    "SM000000453VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 TYPE01 2021-01-01T06:50:54Z 14.0774",
    "SM000000223VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T03:08:28Z 14.4736",
]

ELEMENT_PATH = "/MeterReadings/MeterReading"


def run_tool(tool, *args, stdin=None, check=False, pass_fds=(), extra=None):
    """Run one tool as a real subprocess; stdin may be bytes or None."""
    proc = subprocess.run(
        [sys.executable, "-m", "meterpipe", tool, *args],
        input=stdin,
        capture_output=True,
        pass_fds=pass_fds,
        **(extra or {}),
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"{tool} failed ({proc.returncode}): {proc.stderr.decode()}"
        )
    return proc


@pytest.fixture
def sample_dir(tmp_path):
    """Directory holding only the reference XML document plus the master."""
    readings = tmp_path / "readings"
    readings.mkdir()
    (readings / "READINGS-SM000999VG_20210308222218.xml").write_text(
        SAMPLE_XML, encoding="utf-8"
    )
    master = tmp_path / "READING_TYPE_CONVERTER"
    master.write_text("\n".join(MASTER_ROWS) + "\n", encoding="utf-8")
    return readings, master


def make_pipeline_config(tmp_path, readings, master, batch_dirs=None):
    from meterpipe.pipeline import PipelineConfig

    return PipelineConfig(
        readings_dir=str(readings),
        parsed_dir=str(tmp_path / "parsed"),
        valid_dir=str(tmp_path / "valid"),
        corrected_dir=str(tmp_path / "corrected"),
        master_path=str(master),
        batch_dirs=batch_dirs,
    )


def assert_no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_child_left():
    """Every tool of an in-process stage is a child of the test process; a
    tool that the stage did not reap shows up here after the test."""
    yield
    assert_no_child_left()
